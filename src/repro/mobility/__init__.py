"""Code mobility + sandbox (system S7).

The Consumer Grid's defining mechanism: task graphs travel as XML, and
executable modules are downloaded **on demand** from their owner, so a
peer "only host[s] code that is necessary" and versions stay consistent.

* :class:`ModuleRepository` — the authoritative, versioned unit store
* :class:`ModuleCache` — per-device LRU cache with on_demand/sticky policy
* :class:`SandboxPolicy` — host permission + certified-library checks
"""

from .cache import CacheStats, ModuleCache, ModuleSettings
from .errors import (
    MobilityError,
    ModuleNotFoundInRepo,
    RepositoryUnreachable,
    SandboxViolation,
)
from .repository import ModulePackage, ModuleRepository
from .sandbox import DEFAULT_PERMISSIONS, SandboxPolicy

__all__ = [
    "CacheStats",
    "DEFAULT_PERMISSIONS",
    "MobilityError",
    "ModuleCache",
    "ModuleSettings",
    "ModuleNotFoundInRepo",
    "ModulePackage",
    "ModuleRepository",
    "RepositoryUnreachable",
    "SandboxPolicy",
    "SandboxViolation",
]
