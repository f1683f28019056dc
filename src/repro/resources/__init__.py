"""Resource substrate (system S8): volunteers and accounts.

* availability models — :class:`PoissonChurn`, :class:`ScreensaverCycle`,
  :class:`ScriptedAvailability` (the volunteer dynamics of §3.7)
* account managers — Globus-style per-user accounts vs the Triana virtual
  account with billing (§2), counted by experiment E9

The paper's GRAM gateway to a batch-managed cluster (§3.1) is not
reproduced: no experiment runs it and the paper makes no claim about it.
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
from .errors import ResourceError

__all__ = [
    "AvailabilityModel",
    "AvailabilityStats",
    "CertificateAuthority",
    "Credential",
    "GlobusAccountManager",
    "PoissonChurn",
    "ResourceError",
    "ScreensaverCycle",
    "ScriptedAvailability",
    "UsageRecord",
    "VirtualAccountManager",
]
