"""Schedules a :class:`FaultPlan` onto the simulation kernel.

The injector translates each declarative :class:`~repro.faults.plan.Fault`
into concrete simkernel events against a :class:`~repro.p2p.network.SimNetwork`:

* ``crash`` / ``portal-outage`` — each target's outages are driven through
  a :class:`~repro.resources.availability.ScriptedAvailability` model on
  its :class:`~repro.p2p.peer.Peer`, so the usual availability stats and
  churn listeners fire; a target with no ``Peer`` is refused.
* ``partition`` — a named cut between two node groups, healed when the
  window closes.
* ``loss`` / ``corrupt`` / ``duplicate`` / ``reorder`` — the network-wide
  fraction of messages lost, corrupted, … while the window is open.
* ``slowdown`` — the target's CPU speed factor is scaled for the window.

Windows of one key (a message kind, or a slowdown's target) compose:
the value in force is that of the latest-opened window still open, and
with none open it is 0.0 for a fraction and 1.0 for a speed factor.

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
from .plan import MESSAGE_FAULT_KINDS, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault plan to a simulated network, deterministically."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        plan: FaultPlan,
        peers: dict[str, Peer],
    ):
        self.sim = sim
        self.network = network
        self.plan = plan
        self.peers = dict(peers)
        #: chronological record of every action the injector took
        self.log: list[dict[str, Any]] = []
        #: availability models installed for crash faults, by peer id
        self.availability: dict[str, Any] = {}
        self._scheduled = False
        self._active_cuts: dict[int, int] = {}  # plan index -> network cut id
        #: (fault identity, target) -> installed compute-fault window
        self._compute_windows: dict[tuple[int, str], Any] = {}
        #: (kind, target or None) -> its open windows, oldest first
        self._open: dict[tuple[str, Optional[str]], list] = {}

    # -- scheduling -----------------------------------------------------------
    def schedule(self) -> "FaultInjector":
        """Install every fault onto the kernel.  Idempotent.

        Faults whose start time is already in the past are skipped (with a
        log entry) rather than fired late — a plan is a script, not a queue.
        A crash or portal outage whose target has no ``Peer`` raises
        :class:`FaultError` before anything is installed.
        """
        if self._scheduled:
            return self
        self.plan.validate(self.network.nodes())
        for fault in self.plan:
            if fault.kind in ("crash", "portal-outage"):
                missing = [t for t in fault.targets or ("portal",) if t not in self.peers]
                if missing:
                    raise FaultError(
                        f"{fault.describe()}: no Peer for {', '.join(missing)}; "
                        "an outage is driven through the target's Peer"
                    )
        self._scheduled = True
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
            elif fault.kind in MESSAGE_FAULT_KINDS or fault.kind == "slowdown":
                self.sim.call_at(fault.at, self._open_window, fault)
                self.sim.call_at(fault.ends_at, self._close_window, fault)
            elif fault.kind in COMPUTE_FAULT_KINDS:
                self.sim.call_at(fault.at, self._corrupt_compute, fault)
                if fault.duration > 0:
                    self.sim.call_at(fault.ends_at, self._heal_compute, fault)
            else:  # pragma: no cover - FAULT_KINDS is closed
                raise FaultError(f"unhandled fault kind {fault.kind!r}")

        from ..resources.availability import ScriptedAvailability

        for target, windows in sorted(outage_windows.items()):
            model = ScriptedAvailability(windows)
            model.on_down(lambda p: self._log("crash", p.peer_id))
            model.on_up(lambda p: self._log("restart", p.peer_id))
            model.install(self.peers[target])
            self.availability[target] = model
        return self

    # -- fault actions --------------------------------------------------------
    def _log(self, action: str, detail: str) -> None:
        self.log.append({"t": self.sim.now, "action": action, "detail": detail})

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

    def _open_window(self, fault) -> None:
        for key in self._keys(fault):
            self._open.setdefault(key, []).append(fault)
            self._apply(key, ending=False)

    def _close_window(self, fault) -> None:
        for key in self._keys(fault):
            self._open[key].remove(fault)
            self._apply(key, ending=True)

    @staticmethod
    def _keys(fault) -> list[tuple[str, Optional[str]]]:
        """A message window is network-wide; a slowdown is per target."""
        if fault.kind == "slowdown":
            return [("slowdown", target) for target in fault.targets]
        return [(fault.kind, None)]

    def _apply(self, key: tuple[str, Optional[str]], ending: bool) -> None:
        """Put the latest-opened window still open for ``key`` in force."""
        kind, target = key
        windows = self._open[key]
        action = f"{kind}-end" if ending else kind
        if target is None:
            value = windows[-1].fraction if windows else 0.0
            setattr(self.network, f"{kind}_fraction", value)
            self._log(action, f"p={value:g}")
        else:
            value = windows[-1].factor if windows else 1.0
            self.network.set_speed_factor(target, value)
            self._log(action, target if ending else f"{target} x{value:g}")

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

    # -- reporting ------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        """Number of fault *onsets* applied so far (heals/ends excluded)."""
        onsets = {"crash", "partition", "slowdown", *MESSAGE_FAULT_KINDS}
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
