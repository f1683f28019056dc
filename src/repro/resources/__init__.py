"""Resource substrate (system S8): volunteers, batch gateways, accounts.

* availability models — :class:`PoissonChurn`, :class:`ScreensaverCycle`,
  :class:`ScriptedAvailability` (the volunteer dynamics of §3.7)
* :class:`BatchQueue` / :class:`GramGateway` — the Globus-GRAM cluster path
* account managers — Globus-style per-user accounts vs the Triana virtual
  account with billing (§2)
"""

from .accounts import (
    CertificateAuthority,
    Credential,
    GlobusAccountManager,
    UsageRecord,
    VirtualAccountManager,
)
from .availability import (
    AvailabilityModel,
    AvailabilityStats,
    PoissonChurn,
    ScreensaverCycle,
    ScriptedAvailability,
)
from .errors import AuthenticationError, QueueError, ResourceError
from .gram import BatchQueue, GramGateway, JobSpec

__all__ = [
    "AuthenticationError",
    "AvailabilityModel",
    "AvailabilityStats",
    "BatchQueue",
    "CertificateAuthority",
    "Credential",
    "GlobusAccountManager",
    "GramGateway",
    "JobSpec",
    "PoissonChurn",
    "QueueError",
    "ResourceError",
    "ScreensaverCycle",
    "ScriptedAvailability",
    "UsageRecord",
    "VirtualAccountManager",
]
