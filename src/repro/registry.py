"""The one name → entry registry every pluggable surface is built on.

Units, distribution policies, farm dispatch policies and transport
backends are all "register once under a name, look up by name or fail
with an error that lists what *is* registered".  :class:`Registry` is
that idiom, once; the typed registries subclass or instantiate it with
their own noun and error type.  A leaf module: it imports nothing from
``repro``, so any layer may build on it.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Name → entry mapping; duplicates and unknown names raise ``error``.

    ``kind`` is the noun used in messages (``"unit"``, ``"transport"``);
    ``error`` the exception type raised, so each surface keeps the error
    its callers already catch.
    """

    def __init__(self, kind: str, error: type[Exception]):
        self.kind = kind
        self.error = error
        self._entries: dict[str, T] = {}

    def _key(self, name: str) -> str:
        """Canonical form of a looked-up name (hook for aliases)."""
        return name

    def add(self, name: str, entry: T) -> T:
        """Register ``entry`` under ``name``; duplicate names are an error."""
        if not name or not isinstance(name, str):
            raise self.error(f"{self.kind} name must be a non-empty string")
        if name in self._entries:
            raise self.error(f"{self.kind} {name!r} already registered")
        self._entries[name] = entry
        return entry

    def lookup(self, name: str) -> T:
        """The entry registered as ``name``, or ``error`` listing the names."""
        try:
            return self._entries[self._key(name)]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; "
                f"registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries.values())
