"""Schedules a :class:`FaultPlan` onto the simulation kernel.

The injector translates each declarative :class:`~repro.faults.plan.Fault`
into concrete simkernel events against a :class:`~repro.p2p.network.SimNetwork`:

* ``crash`` / ``portal-outage`` — when the affected :class:`~repro.p2p.peer.Peer`
  objects are known, outages are driven through a
  :class:`~repro.resources.availability.ScriptedAvailability` model so the
  usual availability stats and churn listeners fire; otherwise the node is
  toggled directly on the network.
* ``partition`` — a named cut between two node groups, healed when the
  window closes.
* ``corrupt`` / ``duplicate`` / ``reorder`` — the network-wide fraction is
  raised for the window and restored to its baseline afterwards (windows
  may stack; the *baseline* is whatever the network was built with).
* ``slowdown`` — the target's CPU speed factor is scaled for the window.

Every applied action is appended to :attr:`FaultInjector.log`, and
:meth:`summary` renders the counts the run report embeds.
"""

from __future__ import annotations

from typing import Any, Optional

from ..p2p.network import SimNetwork
from ..p2p.peer import Peer
from ..simkernel import Simulator
from .compute import COMPUTE_FAULT_KINDS, ComputeFaultModel, ComputeFaultWindow
from .errors import FaultError
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault plan to a simulated network, deterministically."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        plan: FaultPlan,
        peers: Optional[dict[str, Peer]] = None,
    ):
        self.sim = sim
        self.network = network
        self.plan = plan
        self.peers = dict(peers or {})
        #: chronological record of every action the injector took
        self.log: list[dict[str, Any]] = []
        #: availability models installed for crash faults, by peer id
        self.availability: dict[str, Any] = {}
        self._scheduled = False
        self._active_cuts: dict[int, int] = {}  # plan index -> network cut id
        #: (fault identity, target) -> installed compute-fault window
        self._compute_windows: dict[tuple[int, str], Any] = {}

    # -- scheduling -----------------------------------------------------------
    def schedule(self) -> "FaultInjector":
        """Install every fault onto the kernel.  Idempotent.

        Faults whose start time is already in the past are skipped (with a
        log entry) rather than fired late — a plan is a script, not a queue.
        """
        if self._scheduled:
            return self
        self._scheduled = True
        self.plan.validate(self.network.nodes())
        now = self.sim.now

        # Crash-like faults grouped per target so one ScriptedAvailability
        # model carries all of a peer's outage windows.
        outage_windows: dict[str, list[tuple[float, float]]] = {}
        for index, fault in enumerate(self.plan):
            if fault.at < now:
                self._log("skipped-past", fault.describe())
                continue
            if fault.kind in ("crash", "portal-outage"):
                for target in fault.targets or ("portal",):
                    outage_windows.setdefault(target, []).append(
                        (fault.at, fault.duration)
                    )
                continue
            if fault.kind == "partition":
                self.sim.call_at(fault.at, self._cut, index, fault)
                if fault.duration > 0:
                    self.sim.call_at(fault.ends_at, self._heal, index, fault)
            elif fault.kind in ("corrupt", "duplicate", "reorder"):
                attr = f"{fault.kind}_fraction"
                baseline = getattr(self.network, attr)
                self.sim.call_at(fault.at, self._set_fraction, attr, fault)
                self.sim.call_at(
                    fault.ends_at, self._restore_fraction, attr, baseline, fault
                )
            elif fault.kind == "slowdown":
                self.sim.call_at(fault.at, self._slow, fault)
                self.sim.call_at(fault.ends_at, self._unslow, fault)
            elif fault.kind in COMPUTE_FAULT_KINDS:
                self.sim.call_at(fault.at, self._corrupt_compute, fault)
                if fault.duration > 0:
                    self.sim.call_at(fault.ends_at, self._heal_compute, fault)
            else:  # pragma: no cover - FAULT_KINDS is closed
                raise FaultError(f"unhandled fault kind {fault.kind!r}")

        from ..resources.availability import ScriptedAvailability

        for target, windows in sorted(outage_windows.items()):
            peer = self.peers.get(target)
            if peer is not None:
                model = ScriptedAvailability(windows)
                model.on_down(lambda p: self._log("crash", p.peer_id))
                model.on_up(lambda p: self._log("restart", p.peer_id))
                model.install(peer)
                self.availability[target] = model
            else:
                # No Peer object — drive the network's liveness directly.
                for at, duration in windows:
                    self.sim.call_at(at, self._down, target)
                    if duration > 0:
                        self.sim.call_at(at + duration, self._up, target)
        return self

    # -- fault actions --------------------------------------------------------
    def _log(self, action: str, detail: str) -> None:
        self.log.append({"t": self.sim.now, "action": action, "detail": detail})

    def _down(self, target: str) -> None:
        self.network.set_online(target, False)
        self._log("crash", target)

    def _up(self, target: str) -> None:
        self.network.set_online(target, True)
        self._log("restart", target)

    def _cut(self, index: int, fault) -> None:
        self._active_cuts[index] = self.network.partition(
            fault.targets, fault.targets_b
        )
        self._log("partition", fault.describe())

    def _heal(self, index: int, fault) -> None:
        cut_id = self._active_cuts.pop(index, None)
        if cut_id is not None:
            self.network.heal(cut_id)
            self._log("heal", fault.describe())

    def _set_fraction(self, attr: str, fault) -> None:
        setattr(self.network, attr, fault.fraction)
        self._log(fault.kind, f"p={fault.fraction:g}")

    def _restore_fraction(self, attr: str, baseline: float, fault) -> None:
        setattr(self.network, attr, baseline)
        self._log(f"{fault.kind}-end", f"p={baseline:g}")

    def _corrupt_compute(self, fault) -> None:
        """Install a tampering window on each target's compute-fault model.

        Models live in ``SimNetwork.compute_faults`` — a neutral registry
        the worker service polls after every execution, so neither layer
        imports the other (``tools/check_layering.py`` enforces the
        faults → service direction).
        """
        for target in fault.targets:
            model = self.network.compute_faults.get(target)
            if model is None:
                model = ComputeFaultModel(peer_id=target)
                self.network.compute_faults[target] = model
            window = ComputeFaultWindow(
                kind=fault.kind,
                seed=fault.seed,
                fraction=fault.fraction,
                since=fault.at,
                until=fault.ends_at if fault.duration > 0 else float("inf"),
            )
            self._compute_windows[(id(fault), target)] = window
            model.add_window(window)
            self._log(fault.kind, f"{target} p={fault.fraction:g}")

    def _heal_compute(self, fault) -> None:
        for target in fault.targets:
            window = self._compute_windows.pop((id(fault), target), None)
            model = self.network.compute_faults.get(target)
            if window is not None and model is not None:
                model.remove_window(window)
                self._log(f"{fault.kind}-end", target)

    def _slow(self, fault) -> None:
        for target in fault.targets:
            self.network.set_speed_factor(target, fault.factor)
            self._log("slowdown", f"{target} x{fault.factor:g}")

    def _unslow(self, fault) -> None:
        for target in fault.targets:
            self.network.set_speed_factor(target, 1.0)
            self._log("slowdown-end", target)

    # -- reporting ------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        """Number of fault *onsets* applied so far (heals/ends excluded)."""
        onsets = {"crash", "partition", "corrupt", "duplicate", "reorder", "slowdown"}
        onsets |= COMPUTE_FAULT_KINDS
        return sum(1 for entry in self.log if entry["action"] in onsets)

    def telemetry_sample(self) -> dict[str, Any]:
        """Injection progress for the live telemetry sampler."""
        return {
            "planned": len(self.plan),
            "injected": self.faults_injected,
            "log_entries": len(self.log),
        }

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "plan": self.plan.name,
            "planned": len(self.plan),
            "injected": self.faults_injected,
            "kinds": self.plan.kinds(),
            "log": list(self.log),
        }
        models = self.network.compute_faults
        if models:
            out["compute"] = [
                models[peer].summary() for peer in sorted(models)
            ]
        return out
