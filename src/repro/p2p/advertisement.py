"""Advertisements — the JXTA-style self-describing resource records.

"Peer naming, grouping, and advertising is achieved using JXTA."  An
advertisement is a small typed record published into a discovery service:
peers advertise themselves (with capability attributes such as "CPU
capability and available free memory", §4) and pipes advertise their
unique names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Optional

__all__ = [
    "Advertisement", "AdvCache", "AttrPredicate",
    "ADV_PIPE", "ADV_SERVICE",
]

ADV_PIPE = "pipe"
ADV_SERVICE = "service"


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
      capability" style constraint); a value the threshold cannot be
      compared against does not satisfy it.

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
            try:
                if attrs.get(key, 0.0) < threshold:
                    return False
            except TypeError:
                # The clause came off the wire and the record from another
                # peer: a value it cannot be compared against does not match.
                return False
        return True


#: Process-wide on purpose: an ``adv_id`` is only ever a sort key (creation
#: order), so the count a grid starts from cannot reach a result — unlike a
#: request id, which breaks ties by ``id % n`` and is counted per grid.
_adv_counter = itertools.count()

#: The order every answer is returned in: creation order, ties broken by
#: the cache key.  Two processes mint their own ``adv_id`` sequences, so on
#: a real transport one answer can hold two records with the same id.
adv_order = attrgetter("adv_id", "adv_type", "name", "publisher")


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
    old record — re-publishing refreshes the expiry.  A query by name
    costs its answer, not the cache: the first one builds a name index
    that every later change keeps up to date.
    """

    #: name -> the one record called that, or ``{key: record}`` from the
    #: second record on (every replica of a module advertises one name, so
    #: ``put`` may not search a bucket; a container per name is +1.6 MiB on
    #: 10 000 peers).  Class-level until the first named query: most caches
    #: hold their owner's one advert and are never asked anything by name.
    _by_name: Optional[dict[str, Any]] = None
    #: Lower bound on the earliest ``expires_at`` held.  A re-publish or a
    #: removal may leave it too low (one pass that drops nothing), never
    #: too high.  An instance gains it with its first finite expiry.
    _expiry_bound: float = float("inf")

    def __init__(self):
        self._records: dict[tuple[str, str, str], Advertisement] = {}

    def put(self, adv: Advertisement) -> None:
        key = (adv.adv_type, adv.name, adv.publisher)
        self._records[key] = adv
        if adv.expires_at < self._expiry_bound:
            self._expiry_bound = adv.expires_at
        if self._by_name is not None:
            self._index(self._by_name, key, adv)

    @staticmethod
    def _index(index: dict[str, Any], key: tuple[str, str, str], adv: Advertisement) -> None:
        held = index.get(adv.name)
        if type(held) is dict:
            held[key] = adv
        elif held is None or (held.publisher == key[2] and held.adv_type == key[0]):
            index[adv.name] = adv
        else:
            index[adv.name] = {(held.adv_type, held.name, held.publisher): held, key: adv}

    def _drop(self, key: tuple[str, str, str]) -> None:
        """Delete a record that is held, from the index too."""
        del self._records[key]
        index = self._by_name
        if index is not None:
            held = index[key[1]]
            if type(held) is dict and len(held) > 1:
                del held[key]
            else:
                del index[key[1]]

    def query(
        self,
        now: float,
        adv_type: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> list[Advertisement]:
        """Matching, unexpired records (deterministic order)."""
        self.expire(now)
        if isinstance(name, str):  # anything else, None included, scans
            index = self._by_name
            if index is None:
                index = self._by_name = {}
                for key, adv in self._records.items():
                    self._index(index, key, adv)
            held = index.get(name)
            pool = () if held is None else held.values() if type(held) is dict else (held,)
        else:
            pool = self._records.values()
        hits = [adv for adv in pool if adv.matches(adv_type, name, predicate)]
        return sorted(hits, key=adv_order)

    def expire(self, now: float) -> int:
        """Remove stale records; returns how many were dropped."""
        if now < self._expiry_bound:
            return 0
        doomed = []
        bound = float("inf")
        for k, adv in self._records.items():
            if adv.expires_at <= now:
                doomed.append(k)
            elif adv.expires_at < bound:
                bound = adv.expires_at
        for k in doomed:
            self._drop(k)
        self._expiry_bound = bound
        return len(doomed)
