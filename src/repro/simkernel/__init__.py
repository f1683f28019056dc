"""Deterministic discrete-event simulation kernel (system S1).

Public surface::

    from repro.simkernel import Simulator, Store, Resource, Interrupt

The kernel underpins the simulated P2P network (:mod:`repro.p2p`), the
volunteer-availability models (:mod:`repro.resources`) and the batch
gateway.  See ``DESIGN.md`` §2.
"""

from .errors import (
    EventStateError,
    Interrupt,
    ProcessError,
    SimError,
    SimTimeError,
)
from .queues import CalendarQueue, Resource, Store
from .rng import RngRegistry, stable_hash
from .sim import AllOf, AnyOf, Event, Process, Simulator, Timeout, check_horizon

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Event",
    "EventStateError",
    "Interrupt",
    "Process",
    "ProcessError",
    "Resource",
    "RngRegistry",
    "SimError",
    "SimTimeError",
    "Simulator",
    "Store",
    "Timeout",
    "check_horizon",
    "stable_hash",
]
