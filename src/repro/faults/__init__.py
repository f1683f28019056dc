"""Chaos layer (system S10): declarative fault injection for the grid.

The consumer network the paper targets is hostile by default — peers
"may disconnect at any time".  This package makes that hostility
*scriptable*:

* :class:`Fault` / :class:`FaultPlan` — declarative, validated, timed
  fault specs (crash, partition, loss, corrupt, duplicate, reorder,
  slowdown, portal outage, and the compute-level saboteur family);
* :func:`chaos` — seed-driven preset plans (``mild`` | ``moderate`` |
  ``heavy`` | ``hostile``);
* :class:`FaultInjector` — schedules a plan onto the simkernel against a
  :class:`~repro.p2p.network.SimNetwork` (and, when peers are known,
  through :class:`~repro.resources.availability.ScriptedAvailability`);
* :class:`ComputeFaultModel` — per-peer wrong-answer state the worker
  service polls, so saboteurs corrupt *results* rather than messages.

See ``docs/robustness.md`` for the full fault model and how the adaptive
recovery and result-integrity layers in :mod:`repro.service` respond.
"""

from .compute import COMPUTE_FAULT_KINDS, ComputeFaultModel, ComputeFaultWindow
from .errors import FaultError, FaultPlanError
from .injector import FaultInjector
from .plan import (
    CHAOS_LEVELS,
    FAULT_KIND_DOCS,
    FAULT_KINDS,
    Fault,
    FaultPlan,
    chaos,
)

__all__ = [
    "CHAOS_LEVELS",
    "COMPUTE_FAULT_KINDS",
    "ComputeFaultModel",
    "ComputeFaultWindow",
    "FAULT_KIND_DOCS",
    "FAULT_KINDS",
    "Fault",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "chaos",
]
