"""The sandbox — the paper's only security mechanism, made explicit.

"In the same way that an Applet has security on the client side, we
provide a similar level of security on the Triana server through the Java
Sandbox. ... The sandbox ensures that an untrusted and possibly
malicious application cannot gain access to system resources."

We reproduce the *policy* layer: every unit declares the host permissions
it needs (``Unit.REQUIRED_PERMISSIONS``); a peer's :class:`SandboxPolicy`
grants a set of permissions and optionally restricts execution to a
certified library — the paper's proposed alternative: "allow users to
only download executables that are selected from a pre-agreed, certified,
software library."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Type

from ..core.units import Unit
from .errors import SandboxViolation

__all__ = ["SandboxPolicy", "DEFAULT_PERMISSIONS", "OPEN_PERMISSIONS"]

#: What a consumer host grants by default: pure computation only.  File
#: system and network access are denied, matching the Java applet sandbox.
DEFAULT_PERMISSIONS = frozenset({"cpu", "ram"})

#: Everything a unit could ask for (trusted/owner execution).
OPEN_PERMISSIONS = frozenset(
    {"cpu", "ram", "fs.read", "fs.write", "net.connect", "exec"}
)


@dataclass
class SandboxStats:
    checks: int = 0
    denials: int = 0
    uncertified_rejections: int = 0


@dataclass(unsafe_hash=True)
class SandboxPolicy:
    """Per-peer execution policy.

    The policy fields are a value (set once, compared and hashed — a
    :class:`~repro.config.GridConfig` carries one); ``stats`` is the
    per-peer tally beside it and takes no part in equality.

    Parameters
    ----------
    granted:
        Permission names the host allows.
    certified_only:
        If True, only units whose qualified names appear in
        ``certified_library`` may run at all.
    certified_library:
        The pre-agreed library (``{"Wave@1.0", ...}``).
    max_module_ram:
        Upper bound on a module's declared working-set bytes ("Users also
        would have the option to specify how much RAM the applications
        could use").
    """

    granted: frozenset[str] = DEFAULT_PERMISSIONS
    certified_only: bool = False
    certified_library: frozenset[str] = frozenset()
    max_module_ram: Optional[int] = None
    stats: SandboxStats = field(default_factory=SandboxStats, compare=False)

    def __post_init__(self):
        self.granted = frozenset(self.granted)
        self.certified_library = frozenset(self.certified_library)

    # -- policy checks ---------------------------------------------------------
    def check_permissions(self, required: Iterable[str]) -> None:
        """Raise :class:`SandboxViolation` on any missing permission."""
        self.stats.checks += 1
        missing = sorted(set(required) - self.granted)
        if missing:
            self.stats.denials += 1
            raise SandboxViolation(
                f"sandbox denies permissions {missing}; granted: {sorted(self.granted)}"
            )

    def check_certified(self, qualified_name: str) -> None:
        if self.certified_only and qualified_name not in self.certified_library:
            self.stats.uncertified_rejections += 1
            raise SandboxViolation(
                f"host only runs certified modules; {qualified_name!r} is not "
                "in the pre-agreed library"
            )

    def check_ram(self, requested_bytes: int) -> None:
        if self.max_module_ram is not None and requested_bytes > self.max_module_ram:
            self.stats.denials += 1
            raise SandboxViolation(
                f"module wants {requested_bytes} bytes RAM, host cap is "
                f"{self.max_module_ram}"
            )

    def authorise(self, cls: Type[Unit], version: str | None = None) -> None:
        """Full admission check for a unit class about to be instantiated."""
        qualified = f"{cls.unit_name()}@{version or cls.VERSION}"
        self.check_certified(qualified)
        self.check_permissions(("cpu", "ram", *cls.REQUIRED_PERMISSIONS))

    def instantiate(self, cls: Type[Unit], version: str | None = None, **params) -> Unit:
        """Authorise and construct a unit in one step."""
        self.authorise(cls, version)
        return cls(**params)
