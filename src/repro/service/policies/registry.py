"""The distribution-policy registry — the units registry's twin.

Task graphs reference policies by name exactly as they reference units:
``<group policy="chunked">`` in XML resolves here at run time.  Registering
a policy also declares its name to the core layer
(:func:`repro.core.taskgraph.register_policy_name`), so graphs carrying the
name can be built, validated and serialized without the service layer in
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Type

from ...core.taskgraph import register_policy_name
from ...registry import Registry
from ..errors import SchedulingError
from .base import DistributionPolicy

__all__ = [
    "PolicyDescriptor",
    "PolicyRegistry",
    "global_policy_registry",
    "register_policy",
]


@dataclass(frozen=True)
class PolicyDescriptor:
    """Metadata describing one registered distribution policy."""

    name: str
    cls: Type[DistributionPolicy]
    summary: str


class PolicyRegistry(Registry[PolicyDescriptor]):
    """Name → distribution-policy-class mapping.

    The controller resolves a group's policy name against its registry
    (the global one unless injected); third-party policies become usable
    end-to-end — XML through ``repro run`` — by registering alone.
    """

    def __init__(self):
        super().__init__("distribution policy", SchedulingError)

    def register(self, cls: Type[DistributionPolicy]) -> PolicyDescriptor:
        """Register a policy class; duplicate names are an error."""
        if not (isinstance(cls, type) and issubclass(cls, DistributionPolicy)):
            raise SchedulingError(f"{cls!r} is not a DistributionPolicy subclass")
        desc = self.add(
            cls.name, PolicyDescriptor(name=cls.name, cls=cls, summary=cls.summary())
        )
        register_policy_name(cls.name)
        return desc

    def create(self, name: str, **params) -> DistributionPolicy:
        """Instantiate a registered policy (one instance per group run)."""
        return self.lookup(name).cls(**params)


_GLOBAL = PolicyRegistry()


def global_policy_registry() -> PolicyRegistry:
    """The process-wide registry the built-in policies populate."""
    return _GLOBAL


def register_policy(
    cls: Optional[Type[DistributionPolicy]] = None,
    *,
    registry: Optional[PolicyRegistry] = None,
):
    """Class decorator registering a policy, bare or parenthesised::

        @register_policy
        class Mine(DistributionPolicy): ...

        @register_policy(registry=my_registry)
        class Mine(DistributionPolicy): ...
    """

    def deco(c: Type[DistributionPolicy]) -> Type[DistributionPolicy]:
        (_GLOBAL if registry is None else registry).register(c)
        return c

    return deco(cls) if cls is not None else deco
