"""One description of a Consumer Grid: :class:`GridConfig`.

The simulated grid, the in-process TCP loopback and the multi-process
deployment are all built from this value by the same assembly
(:class:`repro.grid.GridNode`).  It is frozen and hashable, so it can key
a table of runs, and it round-trips through :mod:`repro.transport.wire`,
so it is also what ``python -m repro.deployment`` receives as its
bootstrap payload.  Every range is checked in ``__post_init__`` — before
any socket or event loop exists.

Settings a subsystem owns as a group live in that subsystem's own value
(:class:`~repro.service.policies.RecoverySettings`,
:class:`~repro.mobility.ModuleSettings`) and are handed to it whole;
field names are unique across the groups, so :meth:`GridConfig.replace`
takes them flat::

    GridConfig().replace(n_workers=8, heartbeat_interval=1.0, contention=True)

Runtime *objects* (a caller-owned ``tracer``, a unit ``registry``) are
not values and stay constructor keywords of the grid classes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .faults.plan import FaultPlan
from .mobility import ModuleSettings, SandboxPolicy
from .p2p.network import DSL_PROFILE, NodeProfile
from .service.policies import RecoverySettings
from .transport import TRANSPORTS

__all__ = ["GridConfig", "settings"]


def _owned(default: Any, owner: str, sim_only: bool = False) -> Any:
    """A field tagged with the subsystem that consumes it (docs table)."""
    return field(default=default, metadata={"owner": owner, "sim_only": sim_only})


@dataclass(frozen=True)
class GridConfig:
    """Everything that distinguishes one grid from another, as a value."""

    #: volunteer worker peers, named ``worker-0`` … ``worker-<n-1>``
    n_workers: int = _owned(4, "grid")
    #: kernel seed: a simulated run is a pure function of config and seed
    seed: int = _owned(0, "simkernel")
    #: fabric, a name in :data:`repro.transport.TRANSPORTS`
    transport: str = _owned("sim", "transport")
    #: ``central`` | ``flooding`` | ``rendezvous`` (socket fabrics: central)
    discovery: str = _owned("central", "p2p.discovery")
    #: seconds a discovery query collects replies
    query_window: float = _owned(2.0, "p2p.discovery")
    #: link/CPU profile of the volunteers (default: a 2003 DSL consumer)
    worker_profile: NodeProfile = _owned(DSL_PROFILE, "p2p.network")
    #: link/CPU profile of the portal and controller peers
    controller_profile: NodeProfile = _owned(DSL_PROFILE, "p2p.network")
    #: fraction of a worker's nominal flops its units achieve
    worker_efficiency: float = _owned(1.0, "service.worker")
    #: host execution policy; every worker gets its own copy
    sandbox: SandboxPolicy = _owned(SandboxPolicy(), "mobility.sandbox")
    #: serialise each node's uplink and downlink (concurrent sends queue)
    contention: bool = _owned(False, "p2p.network", sim_only=True)
    #: timed script of crashes, partitions, message loss … (``repro.faults``);
    #: the only way a simulated grid misbehaves
    fault_plan: Optional[FaultPlan] = _owned(None, "faults", sim_only=True)
    recovery: RecoverySettings = RecoverySettings()
    modules: ModuleSettings = ModuleSettings()
    #: record spans and events from construction on (docs/observability.md)
    trace: bool = _owned(False, "observe")
    #: live sampler + health monitor; implies ``trace``
    telemetry: bool = _owned(False, "observe")
    #: sampler tick spacing, in kernel seconds
    telemetry_interval: float = _owned(5.0, "observe")
    #: z-score below the fleet at which the health monitor reports a
    #: straggler (:class:`repro.observe.health.StragglerDetector`)
    straggler_z: float = _owned(2.0, "observe.health")

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        for name in ("query_window", "worker_efficiency", "telemetry_interval", "straggler_z"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        fabric = TRANSPORTS.lookup(self.transport)  # unknown name: ValueError
        if self.discovery not in fabric.supported_discovery:
            raise ValueError(
                f"discovery {self.discovery!r} is not supported on the "
                f"{self.transport!r} transport "
                f"(supported: {', '.join(fabric.supported_discovery)})"
            )
        plan = self.fault_plan
        if self.transport == "tcp":
            bad = [
                f.name for f in dataclasses.fields(self)
                if f.metadata.get("sim_only") and getattr(self, f.name)
            ]
            if bad:
                raise ValueError(
                    "simulation apparatus is not supported on the tcp "
                    f"transport: {', '.join(bad)}"
                )
        if plan is not None and type(plan.faults) is not tuple:
            # Our own copy: the caller's plan stays free to grow.
            object.__setattr__(self, "fault_plan", FaultPlan(tuple(plan.faults), plan.name))

    def replace(self, **changes: Any) -> "GridConfig":
        """A copy with the named settings changed.

        Names are flat: a group's field (``heartbeat_interval``) is
        routed into its group (``recovery``); a whole group may be given
        too.  An unknown name is a ``TypeError`` listing the valid ones.
        """
        top: dict[str, Any] = {}
        grouped: dict[str, dict[str, Any]] = {}
        for name, value in changes.items():
            try:
                group = _ROUTES[name]
            except KeyError:
                raise TypeError(
                    f"unknown grid setting {name!r}; valid: "
                    f"{', '.join(sorted(_ROUTES))}"
                ) from None
            if group is None:
                top[name] = value
            else:
                grouped.setdefault(group, {})[name] = value
        for group, sub in grouped.items():
            top[group] = dataclasses.replace(top.get(group, getattr(self, group)), **sub)
        return dataclasses.replace(self, **top) if top else self


def settings() -> list[tuple[str, Optional[str], dataclasses.Field]]:
    """Every leaf setting as ``(name, group or None, field)``, declaration order."""
    out = []
    for f in dataclasses.fields(GridConfig):
        if f.metadata:
            out.append((f.name, None, f))
        else:  # a group: its fields are the settings
            out.extend((sub.name, f.name, sub) for sub in dataclasses.fields(f.default))
    return out


#: name :meth:`GridConfig.replace` accepts → the group it lives in
#: (``None``: a top-level field, which the groups themselves are too)
_ROUTES: dict[str, Optional[str]] = {name: group for name, group, _ in settings()}
_ROUTES.update(dict.fromkeys(set(filter(None, _ROUTES.values()))))
