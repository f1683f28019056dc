"""Advertisements — the JXTA-style self-describing resource records.

"Peer naming, grouping, and advertising is achieved using JXTA."  An
advertisement is a small typed record published into a discovery service:
peers advertise themselves (with capability attributes such as "CPU
capability and available free memory", §4), pipes advertise their unique
names, and module repositories advertise downloadable units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "Advertisement", "AdvCache", "AttrPredicate",
    "ADV_PEER", "ADV_PIPE", "ADV_SERVICE", "ADV_MODULE",
    "module_adv_name", "module_replica_advertisement",
]

ADV_PEER = "peer"
ADV_PIPE = "pipe"
ADV_SERVICE = "service"
ADV_MODULE = "module"


def module_adv_name(unit_name: str) -> str:
    """Discovery name under which replicas of a unit advertise."""
    return f"module:{unit_name}"


def module_replica_advertisement(
    unit_name: str,
    host: str,
    version: str,
    digest: str,
    code_size: int,
    expires_at: float = float("inf"),
) -> "Advertisement":
    """An ``ADV_MODULE`` record announcing ``host`` holds one package.

    Re-publishing for a new version replaces the old record (the cache
    key is (type, name, publisher)), so a replica never advertises two
    versions of the same unit at once.  Fetchers match on ``digest`` —
    the content address — never on the version string alone.
    """
    return Advertisement.make(
        ADV_MODULE,
        module_adv_name(unit_name),
        host,
        attrs={
            "host": host,
            "version": version,
            "digest": digest,
            "code_size": code_size,
        },
        expires_at=expires_at,
    )

@dataclass(frozen=True)
class AttrPredicate:
    """Declarative attribute filter for discovery queries.

    Historically query predicates were Python closures, which is fine
    inside one simulated process but unshippable: a ``central-query``
    frame carries its :class:`~repro.p2p.discovery.QuerySpec` —
    predicate included — to the index node, and on a real transport
    that frame crosses a process boundary.  ``AttrPredicate`` is the
    wire-safe form: three conjunctive clause sets over the
    advertisement's attribute dict, stored as sorted tuples so records
    encode canonically.

    * ``equals``     — every ``(key, value)`` must match exactly;
    * ``not_equals`` — every ``(key, value)`` must differ;
    * ``at_least``   — every ``(key, threshold)`` must satisfy
      ``attrs.get(key, 0.0) >= threshold`` (the paper's "minimum CPU
      capability" style constraint).

    Instances are callable with the same signature as the old closures,
    so every discovery backend accepts either form unchanged.
    """

    equals: tuple = ()
    not_equals: tuple = ()
    at_least: tuple = ()

    @staticmethod
    def make(equals=None, not_equals=None, at_least=None) -> "AttrPredicate":
        """Build from dicts/iterables of pairs; clause order is canonical."""
        def norm(spec) -> tuple:
            if not spec:
                return ()
            items = spec.items() if isinstance(spec, dict) else spec
            return tuple(sorted((str(k), v) for k, v in items))

        return AttrPredicate(
            equals=norm(equals), not_equals=norm(not_equals), at_least=norm(at_least)
        )

    def __call__(self, attrs: dict) -> bool:
        for key, value in self.equals:
            if attrs.get(key) != value:
                return False
        for key, value in self.not_equals:
            if attrs.get(key) == value:
                return False
        for key, threshold in self.at_least:
            if attrs.get(key, 0.0) < threshold:
                return False
        return True


#: Process-wide on purpose: an ``adv_id`` is only ever a sort key (creation
#: order), so the count a grid starts from cannot reach a result — unlike a
#: request id, which breaks ties by ``id % n`` and is counted per grid.
_adv_counter = itertools.count()


@dataclass(frozen=True)
class Advertisement:
    """One published resource record.

    Attributes
    ----------
    adv_type:
        One of ``peer | pipe | service | module``.
    name:
        Resource name (unique pipe name, peer id, service kind...).
    publisher:
        Peer id that published the record.
    attrs:
        Free-form attribute map used for predicate matching, e.g.
        ``{"cpu_flops": 2e9, "free_ram": 256e6}``.
    expires_at:
        Absolute sim time after which the record is stale; ``inf`` = never.
    """

    adv_type: str
    name: str
    publisher: str
    attrs: tuple[tuple[str, Any], ...] = ()
    expires_at: float = float("inf")
    adv_id: int = field(default_factory=lambda: next(_adv_counter))

    @staticmethod
    def make(
        adv_type: str,
        name: str,
        publisher: str,
        attrs: Optional[dict[str, Any]] = None,
        expires_at: float = float("inf"),
    ) -> "Advertisement":
        """Build an advertisement from a plain attribute dict."""
        items = tuple(sorted((attrs or {}).items()))
        return Advertisement(adv_type, name, publisher, items, expires_at)

    @property
    def attributes(self) -> dict[str, Any]:
        return dict(self.attrs)

    def matches(
        self,
        adv_type: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> bool:
        """True if this record satisfies the query."""
        if adv_type is not None and self.adv_type != adv_type:
            return False
        if name is not None and self.name != name:
            return False
        if predicate is not None and not predicate(self.attributes):
            return False
        return True

    def wire_size(self) -> int:
        """Modelled serialised size in bytes."""
        return 128 + 32 * len(self.attrs)


class AdvCache:
    """A peer-local advertisement cache with expiry.

    Duplicate publishes of the same (type, name, publisher) replace the
    old record — re-publishing refreshes the expiry.
    """

    def __init__(self):
        self._records: dict[tuple[str, str, str], Advertisement] = {}

    def put(self, adv: Advertisement) -> None:
        self._records[(adv.adv_type, adv.name, adv.publisher)] = adv

    def remove(self, adv: Advertisement) -> None:
        self._records.pop((adv.adv_type, adv.name, adv.publisher), None)

    def remove_publisher(self, publisher: str) -> int:
        """Drop every record from one publisher; returns how many."""
        doomed = [k for k in self._records if k[2] == publisher]
        for k in doomed:
            del self._records[k]
        return len(doomed)

    def query(
        self,
        now: float,
        adv_type: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> list[Advertisement]:
        """Matching, unexpired records (deterministic order)."""
        self.expire(now)
        hits = [
            adv
            for adv in self._records.values()
            if adv.matches(adv_type, name, predicate)
        ]
        return sorted(hits, key=lambda a: a.adv_id)

    def expire(self, now: float) -> int:
        """Remove stale records; returns how many were dropped."""
        doomed = [k for k, adv in self._records.items() if adv.expires_at <= now]
        for k in doomed:
            del self._records[k]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(sorted(self._records.values(), key=lambda a: a.adv_id))
