"""Placement and dispatch policies — "making placement decisions".

The paper's abstract: Triana "can support the user in making placement
decisions for their modules"; §4: peers are discovered "based on very
simple attributes – such as CPU capability and available free memory".

Two layers:

* :func:`rank_workers` — order discovered worker advertisements by a
  capability strategy (cpu, ram, bandwidth) before choosing how many to
  use;
* :class:`DispatchPolicy` — how a running farm deals iterations to its
  replicas: classic round-robin, or **weighted** least-finish-time
  dispatch that keeps a 4 GHz volunteer busier than a 1 GHz one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..p2p.advertisement import Advertisement
from ..registry import Registry
from .errors import SchedulingError

__all__ = [
    "rank_workers",
    "DispatchPolicy",
    "RoundRobin",
    "WeightedBySpeed",
    "ReputationWeighted",
    "make_dispatch_policy",
    "register_dispatch_policy",
    "dispatch_policy_names",
]


_RANK_KEYS = {
    "cpu": "cpu_flops",
    "ram": "free_ram",
    "bandwidth": "down_bps",
}


def rank_workers(
    advertisements: Sequence[Advertisement], strategy: str = "cpu"
) -> list[str]:
    """Order worker hosts best-first by an advertised capability."""
    if strategy not in _RANK_KEYS:
        raise SchedulingError(
            f"unknown ranking strategy {strategy!r}; valid: {sorted(_RANK_KEYS)}"
        )
    key = _RANK_KEYS[strategy]
    seen: dict[str, float] = {}
    for adv in advertisements:
        host = adv.attributes.get("host")
        if host is None:
            continue
        value = float(adv.attributes.get(key, 0.0))
        seen[host] = max(seen.get(host, 0.0), value)
    return sorted(seen, key=lambda h: (-seen[h], h))


class DispatchPolicy:
    """Chooses which farm replica receives the next iteration."""

    def setup(self, replica_speeds: list[float]) -> None:
        """Called once with each replica's modelled CPU speed."""
        self.speeds = list(replica_speeds)
        if not self.speeds:
            raise SchedulingError("dispatch policy needs at least one replica")

    def choose(self, iteration: int) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def completed(self, replica: int) -> None:
        """Notify that a result returned from ``replica``."""

    def mark_offline(self, replica: int) -> None:
        """Notify that ``replica`` is suspected dead (churn signal)."""

    def mark_online(self, replica: int) -> None:
        """Notify that a suspected ``replica`` proved alive again."""


class RoundRobin(DispatchPolicy):
    """The reference policy: iteration i → replica i mod k."""

    def choose(self, iteration: int) -> int:
        return iteration % len(self.speeds)


@dataclass
class WeightedBySpeed(DispatchPolicy):
    """Least-estimated-finish-time dispatch for heterogeneous fleets.

    Each replica tracks its outstanding work; the next iteration goes to
    the replica whose queue will drain soonest at its CPU speed.  With
    equal speeds this degenerates to round-robin-ish fairness.  Suspected
    replicas are excluded from ``choose`` until marked back online, so
    weights effectively re-normalise over the surviving fleet under
    churn; if the whole fleet is suspected, everyone is eligible again.
    """

    outstanding: list[int] = field(default_factory=list)
    offline: set[int] = field(default_factory=set)

    def setup(self, replica_speeds: list[float]) -> None:
        super().setup(replica_speeds)
        if any(s <= 0 for s in self.speeds):
            raise SchedulingError("replica speeds must be positive")
        self.outstanding = [0] * len(self.speeds)
        self.offline = set()

    def choose(self, iteration: int) -> int:
        eligible = [r for r in range(len(self.speeds)) if r not in self.offline]
        if not eligible:
            eligible = list(range(len(self.speeds)))
        # Estimated finish time of one more unit of work per replica.
        best = min(
            eligible,
            key=lambda r: ((self.outstanding[r] + 1) / self.speeds[r], r),
        )
        self.outstanding[best] += 1
        return best

    def completed(self, replica: int) -> None:
        if self.outstanding[replica] > 0:
            self.outstanding[replica] -= 1

    def mark_offline(self, replica: int) -> None:
        if 0 <= replica < len(self.speeds):
            self.offline.add(replica)

    def mark_online(self, replica: int) -> None:
        self.offline.discard(replica)


@dataclass
class ReputationWeighted(WeightedBySpeed):
    """Least-finish-time dispatch biased by failure-detector trust scores.

    Extends :class:`WeightedBySpeed`: each replica's effective speed is
    scaled by its health score from the
    :class:`~repro.service.detector.HeartbeatFailureDetector` — which the
    integrity layer's :class:`~repro.service.integrity.ReputationLedger`
    drains on every conviction — so a peer caught lying receives
    steadily less work, and blacklisted or quarantined peers receive
    none while any trusted peer remains.  Without a bound detector (the
    farm binds one via :meth:`bind_reputation` before ``setup``) it
    degrades to plain :class:`WeightedBySpeed`.
    """

    def __post_init__(self):
        self._detector = None
        self._hosts: list[str] = []
        self._sim = None

    def bind_reputation(self, detector, hosts: list[str], sim) -> None:
        """Attach the detector and the replica→host mapping for this run."""
        self._detector = detector
        self._hosts = list(hosts)
        self._sim = sim

    #: trust floor — an untrusted peer is deprioritised, not divided by zero
    TRUST_FLOOR = 0.05

    def choose(self, iteration: int) -> int:
        if self._detector is None or self._sim is None:
            return super().choose(iteration)
        now = self._sim.now
        k = len(self.speeds)

        def trusted(r: int) -> bool:
            return r < len(self._hosts) and self._detector.is_dispatchable(
                self._hosts[r], now
            )

        eligible = [
            r for r in range(k) if r not in self.offline and trusted(r)
        ]
        if not eligible:
            # Every replica is suspect: fall back to liveness-only, then
            # to everyone — a farm must keep dealing to finish the run.
            eligible = [r for r in range(k) if r not in self.offline]
        if not eligible:
            eligible = list(range(k))

        def score(r: int) -> float:
            rec = self._detector.workers.get(self._hosts[r]) if (
                r < len(self._hosts)
            ) else None
            return rec.score if rec is not None else 1.0

        best = min(
            eligible,
            key=lambda r: (
                (self.outstanding[r] + 1)
                / (self.speeds[r] * max(score(r), self.TRUST_FLOOR)),
                r,
            ),
        )
        self.outstanding[best] += 1
        return best


#: name → zero-arg DispatchPolicy factory (see register_dispatch_policy)
_DISPATCH_POLICIES: Registry = Registry("dispatch policy", SchedulingError)


def register_dispatch_policy(name: str, factory) -> None:
    """Register a farm dealing policy under ``name``.

    ``factory`` is a zero-argument callable returning a fresh
    :class:`DispatchPolicy`.  Registered names show up in the CLI's
    ``--dispatch`` choices.
    """
    _DISPATCH_POLICIES.add(name, factory)


def dispatch_policy_names() -> tuple[str, ...]:
    """Every registered dealing-policy name, sorted."""
    return tuple(_DISPATCH_POLICIES.names())


def make_dispatch_policy(name: str) -> DispatchPolicy:
    """Instantiate a registered dealing policy (``round_robin`` | ...)."""
    return _DISPATCH_POLICIES.lookup(name)()


register_dispatch_policy("round_robin", RoundRobin)
register_dispatch_policy("weighted", WeightedBySpeed)
register_dispatch_policy("reputation_weighted", ReputationWeighted)
