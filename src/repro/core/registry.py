"""The unit toolbox registry.

Triana ships "several hundred units" discoverable by name; task graphs
reference units by registry name, and the mobility layer treats a registry
entry (name + version + code size) as the downloadable module.  This
module provides the registry plus the ``@register_unit`` decorator used by
the built-in toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from ..registry import Registry
from .errors import RegistryError
from .units import Unit

__all__ = ["UnitDescriptor", "UnitRegistry", "register_unit", "global_registry"]


@dataclass(frozen=True)
class UnitDescriptor:
    """Metadata describing one registered unit implementation."""

    name: str
    cls: Type[Unit]
    version: str
    code_size: int
    category: str = "misc"

    @property
    def qualified_name(self) -> str:
        """``name@version`` — the identity the mobility layer ships."""
        return f"{self.name}@{self.version}"


class UnitRegistry(Registry[UnitDescriptor]):
    """Name → unit-class mapping with category search.

    A registry instance models one *module repository*: the controller's
    registry is authoritative; peers fetch descriptors from it on demand
    (see :mod:`repro.mobility`).
    """

    def __init__(self):
        super().__init__("unit", RegistryError)

    def _key(self, name: str) -> str:
        """Accept Java-style dotted prefixes (``triana.tools.FFT``)."""
        return name.rsplit(".", 1)[-1]

    def register(self, cls: Type[Unit], category: str = "misc") -> UnitDescriptor:
        """Register a unit class; duplicate names are an error."""
        if not (isinstance(cls, type) and issubclass(cls, Unit)):
            raise RegistryError(f"{cls!r} is not a Unit subclass")
        name = cls.unit_name()
        return self.add(name, UnitDescriptor(
            name=name,
            cls=cls,
            version=cls.VERSION,
            code_size=cls.CODE_SIZE,
            category=category,
        ))

    def create(self, name: str, **params) -> Unit:
        """Instantiate a registered unit with parameters."""
        return self.lookup(name).cls(**params)

    def search(self, category: str | None = None, text: str = "") -> list[UnitDescriptor]:
        """Find units by category and/or name substring."""
        hits = []
        needle = text.lower()
        for desc in self:
            if category is not None and desc.category != category:
                continue
            if needle and needle not in desc.name.lower():
                continue
            hits.append(desc)
        return sorted(hits, key=lambda d: d.name)


_GLOBAL = UnitRegistry()


def global_registry() -> UnitRegistry:
    """The process-wide default registry the built-in toolbox populates."""
    return _GLOBAL


def register_unit(category: str = "misc", registry: UnitRegistry | None = None):
    """Class decorator registering a unit in the global (or given) registry."""

    def deco(cls: Type[Unit]) -> Type[Unit]:
        (_GLOBAL if registry is None else registry).register(cls, category=category)
        return cls

    return deco
