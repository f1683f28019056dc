"""Declarative fault plans: a timed script of ways the grid misbehaves.

The paper's premise is a consumer network whose peers "may disconnect at
any time".  A :class:`FaultPlan` makes that systematic: it is a list of
timed :class:`Fault` specs — peer crashes, overlay partitions, message
loss/corruption/duplication/reordering windows, straggler slowdowns and
portal outages — that a :class:`~repro.faults.injector.FaultInjector`
schedules on the simulation kernel.  Because every fault is declared up
front and all randomness flows through a seed, a chaos run is exactly as
reproducible as a clean one.

:func:`chaos` generates seed-driven preset plans at three intensities so
tests and benchmarks can say ``fault_plan=chaos("moderate", seed=7,
workers=...)`` instead of hand-scripting every outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .compute import COMPUTE_FAULT_KINDS
from .errors import FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "FAULT_KIND_DOCS",
    "COMPUTE_FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "chaos",
    "CHAOS_LEVELS",
]

#: One-line description per fault kind — the ``repro faults`` CLI table.
FAULT_KIND_DOCS = {
    "crash": "peer offline for `duration`, then restarts (0 = permanent)",
    "partition": "cut targets <-> targets_b for `duration`",
    "loss": "lose `fraction` of messages for `duration`",
    "corrupt": "corrupt `fraction` of messages for `duration`",
    "duplicate": "duplicate `fraction` of messages for `duration`",
    "reorder": "reorder `fraction` of messages for `duration`",
    "slowdown": "scale targets' CPU speed by `factor` for `duration`",
    "portal-outage": "rendezvous/portal peer offline for `duration`",
    "saboteur": "targets consistently return wrong results for `fraction` "
                "of iterations (same wrong answer on re-execution)",
    "flaky_compute": "targets transiently return wrong results for "
                     "`fraction` of executions (re-execution usually clean)",
    "liar_heartbeat": "saboteur whose liveness signals stay healthy — only "
                      "result verification can expose it",
}

#: Every fault kind the injector knows how to apply.
FAULT_KINDS = frozenset(FAULT_KIND_DOCS)

#: Message windows: each sets ``SimNetwork.<kind>_fraction`` while open.
MESSAGE_FAULT_KINDS = ("loss", "corrupt", "duplicate", "reorder")


@dataclass(frozen=True)
class Fault:
    """One timed misbehaviour.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Absolute simulation time the fault begins.
    duration:
        How long it lasts; 0 means a point event (only meaningful for
        ``crash`` without restart — a crash with ``duration=0`` is
        permanent).
    targets:
        Affected node ids (crash/slowdown), or side A of a partition.
    targets_b:
        Side B of a partition cut.
    fraction:
        Message fraction for loss/corrupt/duplicate/reorder windows, or the
        per-iteration tampering probability of a compute fault
        (saboteur / flaky_compute / liar_heartbeat).
    factor:
        Speed multiplier for slowdowns (0.25 = four times slower).
    seed:
        Entropy root of a compute fault's tampering decisions — the
        wrong answers are a pure function of ``(seed, peer, iteration)``.
    """

    kind: str
    at: float
    duration: float = 0.0
    targets: tuple[str, ...] = ()
    targets_b: tuple[str, ...] = ()
    fraction: float = 0.0
    factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; know {sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise FaultPlanError(f"fault duration must be >= 0, got {self.duration}")
        if self.kind in ("crash", "slowdown") and not self.targets:
            raise FaultPlanError(f"{self.kind} fault needs at least one target")
        if self.kind == "partition" and (not self.targets or not self.targets_b):
            raise FaultPlanError("partition fault needs both target groups")
        if self.kind == "partition" and set(self.targets) & set(self.targets_b):
            raise FaultPlanError("partition groups overlap")
        if self.kind in MESSAGE_FAULT_KINDS:
            if not 0.0 < self.fraction < 1.0:
                raise FaultPlanError(
                    f"{self.kind} fault needs fraction in (0, 1), got {self.fraction}"
                )
            if self.duration <= 0:
                raise FaultPlanError(f"{self.kind} fault needs a positive duration")
        if self.kind == "slowdown":
            if self.factor <= 0:
                raise FaultPlanError("slowdown factor must be positive")
            if self.duration <= 0:
                raise FaultPlanError("slowdown fault needs a positive duration")
        if self.kind in COMPUTE_FAULT_KINDS:
            if not self.targets:
                raise FaultPlanError(f"{self.kind} fault needs at least one target")
            if not 0.0 < self.fraction <= 1.0:
                raise FaultPlanError(
                    f"{self.kind} fault needs fraction in (0, 1], got {self.fraction}"
                )

    @property
    def ends_at(self) -> float:
        return self.at + self.duration

    def describe(self) -> str:
        """One-line human summary (used in the injector's log)."""
        bits = [f"{self.kind} @t={self.at:g}"]
        if self.duration:
            bits.append(f"for {self.duration:g}s")
        if self.targets:
            bits.append("on " + ",".join(self.targets))
        if self.targets_b:
            bits.append("vs " + ",".join(self.targets_b))
        if self.kind in MESSAGE_FAULT_KINDS or self.kind in COMPUTE_FAULT_KINDS:
            bits.append(f"p={self.fraction:g}")
        if self.kind == "slowdown":
            bits.append(f"x{self.factor:g}")
        return " ".join(bits)


@dataclass(unsafe_hash=True)
class FaultPlan:
    """An ordered collection of faults plus plan-level metadata.

    Hashed by content once ``faults`` is a tuple, as in the copy a
    (hashable) :class:`~repro.config.GridConfig` keeps.
    """

    faults: list[Fault] = field(default_factory=list)
    name: str = "fault-plan"

    def add(self, fault: Fault) -> "FaultPlan":
        """Append one fault; returns ``self`` for chaining."""
        self.faults.append(fault)
        return self

    def __iter__(self) -> Iterator[Fault]:
        return iter(sorted(self.faults, key=lambda f: (f.at, f.kind)))

    def __len__(self) -> int:
        return len(self.faults)

    def kinds(self) -> dict[str, int]:
        """How many faults of each kind the plan holds (for logs and assertions)."""
        counts: dict[str, int] = {}
        for f in self.faults:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    def validate(self, known_nodes: Optional[Sequence[str]] = None) -> None:
        """Check every targeted node exists (when ``known_nodes`` given)."""
        if known_nodes is None:
            return
        known = set(known_nodes)
        for f in self.faults:
            missing = (set(f.targets) | set(f.targets_b)) - known
            if missing:
                raise FaultPlanError(
                    f"fault {f.describe()!r} targets unknown nodes {sorted(missing)}"
                )


#: Preset intensities for :func:`chaos`.  Fractions are of the worker
#: fleet (crashes, saboteurs, flaky peers) or of the message stream
#: (corrupt/duplicate/reorder); ``tamper_rate`` is the per-iteration
#: probability that a compute-faulty peer corrupts a result.
CHAOS_LEVELS = {
    "mild": dict(
        crash_fraction=0.1,
        partitions=0,
        corrupt_fraction=0.0,
        duplicate_fraction=0.02,
        reorder_fraction=0.05,
        stragglers=0,
        portal_outage=False,
        saboteur_fraction=0.0,
        flaky_fraction=0.0,
        liar=False,
        tamper_rate=0.0,
    ),
    "moderate": dict(
        crash_fraction=0.3,
        partitions=1,
        corrupt_fraction=0.05,
        duplicate_fraction=0.05,
        reorder_fraction=0.1,
        stragglers=1,
        portal_outage=False,
        saboteur_fraction=0.0,
        flaky_fraction=0.0,
        liar=False,
        tamper_rate=0.0,
    ),
    "heavy": dict(
        crash_fraction=0.5,
        partitions=1,
        corrupt_fraction=0.1,
        duplicate_fraction=0.1,
        reorder_fraction=0.2,
        stragglers=2,
        portal_outage=True,
        saboteur_fraction=0.0,
        flaky_fraction=0.0,
        liar=False,
        tamper_rate=0.0,
    ),
    # Peers stay up and chatty — they just lie.  No crashes or transport
    # loss: every fault here is invisible to liveness-based recovery, so
    # only result verification (docs/robustness.md, "Result integrity")
    # keeps the answers right.
    "hostile": dict(
        crash_fraction=0.0,
        partitions=0,
        corrupt_fraction=0.0,
        duplicate_fraction=0.02,
        reorder_fraction=0.05,
        stragglers=0,
        portal_outage=False,
        saboteur_fraction=0.34,
        flaky_fraction=0.17,
        liar=True,
        tamper_rate=0.9,
    ),
}


def chaos(
    level: str = "moderate",
    seed: int = 0,
    workers: Sequence[str] = (),
    controller: str = "controller",
    portal: str = "portal",
    start: float = 10.0,
    horizon: float = 120.0,
) -> FaultPlan:
    """Generate a seed-driven preset :class:`FaultPlan`.

    Faults are placed in ``[start, start + horizon]``; ``start`` should
    sit past discovery + deployment so the plan exercises the *recovery*
    machinery rather than hard-failing the deploy phase.  The same
    ``(level, seed, workers)`` always produces the identical plan.
    """
    if level not in CHAOS_LEVELS:
        raise FaultPlanError(
            f"unknown chaos level {level!r}; know {sorted(CHAOS_LEVELS)}"
        )
    if horizon <= 0:
        raise FaultPlanError("horizon must be positive")
    params = CHAOS_LEVELS[level]
    workers = list(workers)
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(workers)]))
    plan = FaultPlan(name=f"chaos-{level}-seed{seed}")

    def window(lo_frac: float = 0.0, hi_frac: float = 0.6) -> tuple[float, float]:
        at = start + float(rng.uniform(lo_frac, hi_frac)) * horizon
        duration = float(rng.uniform(0.15, 0.4)) * horizon
        return at, duration

    # Crashes: a fixed fraction of the fleet goes down mid-run and restarts.
    n_crash = int(round(params["crash_fraction"] * len(workers)))
    if workers and params["crash_fraction"] > 0 and n_crash == 0:
        n_crash = 1
    crashed = (
        [workers[i] for i in rng.choice(len(workers), size=n_crash, replace=False)]
        if n_crash
        else []
    )
    for target in crashed:
        at, duration = window()
        plan.add(Fault(kind="crash", at=at, duration=duration, targets=(target,)))

    # Partition: half the fleet is cut off from the controller-side overlay.
    if params["partitions"] and len(workers) >= 2:
        half = len(workers) // 2
        cut = [workers[i] for i in rng.choice(len(workers), size=half, replace=False)]
        kept = [w for w in workers if w not in cut]
        at, duration = window(0.1, 0.5)
        plan.add(
            Fault(
                kind="partition",
                at=at,
                duration=duration,
                targets=tuple(sorted({controller, portal, *kept})),
                targets_b=tuple(sorted(cut)),
            )
        )

    # Link-quality windows over the whole chaos interval.
    for kind in ("corrupt", "duplicate", "reorder"):
        fraction = params[f"{kind}_fraction"]
        if fraction > 0:
            plan.add(
                Fault(kind=kind, at=start, duration=horizon, fraction=fraction)
            )

    # Stragglers: otherwise-healthy peers that suddenly crawl.
    candidates = [w for w in workers if w not in crashed] or workers
    for i in range(min(params["stragglers"], len(candidates))):
        target = candidates[int(rng.integers(len(candidates)))]
        at, duration = window(0.0, 0.4)
        plan.add(
            Fault(
                kind="slowdown",
                at=at,
                duration=duration,
                targets=(target,),
                factor=0.25,
            )
        )

    # Portal outage: module repository / rendezvous briefly unreachable.
    if params["portal_outage"]:
        at, duration = window(0.2, 0.6)
        plan.add(
            Fault(
                kind="portal-outage",
                at=at,
                duration=min(duration, 0.25 * horizon),
                targets=(portal,),
            )
        )

    # Saboteur population: peers that compute but lie.  Saboteurs (and
    # the liar, whose heartbeats stay pristine) corrupt consistently for
    # the whole chaos window; flaky peers corrupt transiently.  All
    # guards are fraction > 0 so pre-hostile presets draw nothing and
    # stay bit-identical to their historical plans.
    remaining = list(workers)

    def draft(fleet_fraction: float, count: Optional[int] = None) -> list[str]:
        n = count if count is not None else int(round(fleet_fraction * len(workers)))
        n = min(n, len(remaining))
        if workers and count is None and fleet_fraction > 0 and n == 0:
            n = min(1, len(remaining))
        if n == 0:
            return []
        picks = [remaining[i] for i in rng.choice(len(remaining), size=n, replace=False)]
        for p in picks:
            remaining.remove(p)
        return sorted(picks)

    rate = params.get("tamper_rate", 0.0)
    if rate > 0:
        for kind, chosen in (
            ("saboteur", draft(params.get("saboteur_fraction", 0.0))
             if params.get("saboteur_fraction", 0.0) > 0 else []),
            ("flaky_compute", draft(params.get("flaky_fraction", 0.0))
             if params.get("flaky_fraction", 0.0) > 0 else []),
            ("liar_heartbeat", draft(0.0, count=1)
             if params.get("liar", False) else []),
        ):
            for target in chosen:
                plan.add(
                    Fault(
                        kind=kind,
                        at=start,
                        duration=horizon,
                        targets=(target,),
                        fraction=rate if kind != "flaky_compute" else rate / 2.0,
                        seed=int(rng.integers(2**31)),
                    )
                )

    return plan
