"""Peer/resource discovery strategies (system S3, experiment E7).

The paper names the central problem: "A number of P2P application utilise
a 'flooding' mechanism to forward messages to maximise reachability.
This severely restricts the scalability of such approaches" — and adopts
JXTA's rendezvous-based discovery instead, while noting Napster-style
central indexes as prior art.  Three interchangeable strategies are
implemented so the claim is *measurable*:

* :class:`CentralIndexDiscovery` — Napster: one index peer holds every
  advertisement (2 messages per query, single point of failure);
* :class:`FloodingDiscovery` — Gnutella: TTL-limited flood over the
  overlay, replies direct to the querying peer (message cost grows with
  the reachable neighbourhood);
* :class:`RendezvousDiscovery` — JXTA: a small set of rendezvous super-
  peers index their edge peers and forward queries only among themselves.

All three share one interface: ``publish(peer, adv)`` and
``query(peer, ...) -> Event`` whose value is a list of advertisements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..simkernel import Event
from .advertisement import Advertisement, adv_order
from .errors import DiscoveryError
from .network import Message
from .peer import Peer

__all__ = [
    "DiscoveryStats",
    "DiscoveryService",
    "CentralIndexDiscovery",
    "FloodingDiscovery",
    "RendezvousDiscovery",
]


@dataclass
class QuerySpec:
    """What a query is looking for."""

    adv_type: Optional[str] = None
    name: Optional[str] = None
    predicate: Optional[Callable[[dict[str, Any]], bool]] = None


@dataclass
class DiscoveryStats:
    """Per-strategy accounting (benchmarks read these)."""

    publishes: int = 0
    queries: int = 0
    query_messages: int = 0
    reply_messages: int = 0
    results_returned: int = 0


@dataclass
class _PendingQuery:
    event: Event
    #: keyed by (adv_id, type, name, publisher) — adv_id alone is only
    #: unique within one OS process (it is a module-level counter), and
    #: on a real transport replies aggregate records minted by several
    #: processes.  The composite key keeps such records distinct while
    #: staying bit-identical in simulation, where adv_ids never collide.
    results: dict[tuple, Advertisement] = field(default_factory=dict)
    expected_replies: Optional[int] = None
    replies_seen: int = 0
    done: bool = False
    #: open ``discovery.query`` span while the query window is live
    span: Any = None

    def add(self, advs: list[Advertisement]) -> None:
        for adv in advs:
            key = (adv.adv_id, adv.adv_type, adv.name, adv.publisher)
            self.results[key] = adv

    def finish(self) -> list[Advertisement]:
        if not self.done:
            self.done = True
            ordered = sorted(self.results.values(), key=adv_order)
            self.event.succeed(ordered)
            return ordered
        return []


class DiscoveryService:
    """Shared machinery: pending-query table and reply handling."""

    #: message kinds, overridden per strategy for distinct accounting
    KIND_PREFIX = "disc"

    def __init__(self, query_window: float = 2.0):
        self.query_window = query_window
        self.stats = DiscoveryStats()
        self._pending: dict[tuple[str, int], _PendingQuery] = {}
        self._request_ids = itertools.count(1)
        self._peers: dict[str, Peer] = {}
        #: peer id → events waiting for the next publish delivered there
        self._heard: dict[str, list[Event]] = {}
        # Bound once, like ``SimNetwork._on_arrival``: attach installs the
        # same handler objects on every peer instead of fresh bound
        # methods that an idle peer would keep alive for the collector.
        self._on_reply = self._on_reply
        self._on_publish = self._on_publish

    # -- wiring ------------------------------------------------------------------
    def attach(self, peer: Peer) -> None:
        """Install this strategy's handlers on a peer."""
        if peer.peer_id in self._peers:
            raise DiscoveryError(f"peer {peer.peer_id!r} already attached")
        self._peers[peer.peer_id] = peer
        peer.on(f"{self.KIND_PREFIX}-reply", self._on_reply)
        self._attach_extra(peer)

    def _attach_extra(self, peer: Peer) -> None:  # pragma: no cover - overridden
        pass

    def peer(self, peer_id: str) -> Peer:
        if peer_id not in self._peers:
            raise DiscoveryError(f"peer {peer_id!r} not attached to discovery")
        return self._peers[peer_id]

    # -- public API ------------------------------------------------------------------
    def publish(self, peer: Peer, adv: Advertisement) -> None:
        raise NotImplementedError

    def next_publish(self, peer: Peer) -> Event:
        """An event that succeeds when a publish is next delivered to ``peer``.

        ``peer`` is an index or a rendezvous; this is how to wait for an
        advertisement instead of asking again.  Flooding has no publish
        message (adverts stay local), so there it never fires.
        """
        heard = peer.sim.event()
        self._heard.setdefault(peer.peer_id, []).append(heard)
        return heard

    def _on_publish(self, message: Message) -> None:
        self._peers[message.dst].cache.put(message.payload)
        if self._heard:
            for heard in self._heard.pop(message.dst, ()):
                heard.succeed()

    def query(
        self,
        peer: Peer,
        adv_type: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
        window: Optional[float] = None,
    ) -> Event:
        """Launch a query; the returned event yields advertisements.

        ``window`` overrides the strategy's ``query_window`` for this one
        query — latency-sensitive callers (module replica resolution)
        use a short window so a fetch is never stalled behind the full
        discovery horizon.
        """
        spec = QuerySpec(adv_type, name, predicate)
        req = next(self._request_ids)
        pending = _PendingQuery(event=peer.sim.event())
        tracer = peer.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("p2p.discovery_queries").inc()
            pending.span = tracer.begin(
                "discovery.query", category="p2p", track=peer.peer_id,
                strategy=self.KIND_PREFIX, adv_type=adv_type, query_name=name,
            )
        self._pending[(peer.peer_id, req)] = pending
        self.stats.queries += 1
        # Local cache contributes immediately.
        pending.add(peer.cache.query(peer.sim.now, adv_type, name, predicate))
        self._send_query(peer, req, spec, pending)
        horizon = self.query_window if window is None else window
        peer.sim.call_at(peer.sim.now + horizon, self._close, (peer.peer_id, req))
        return pending.event

    def _close(self, key: tuple[str, int]) -> None:
        """Window close: finish the query unless it completed early."""
        entry = self._pending.get(key)
        if entry is not None:
            self._complete(key, entry)

    def _complete(self, key: tuple[str, int], entry: _PendingQuery) -> None:
        """Finish a query (early or at window close) exactly once."""
        self._pending.pop(key, None)
        results = entry.finish()
        self.stats.results_returned += len(results)
        if entry.span is not None:
            entry.span.end(results=len(entry.results), replies=entry.replies_seen)
            entry.span = None

    def _send_query(
        self, peer: Peer, req: int, spec: QuerySpec, pending: _PendingQuery
    ) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- reply plumbing ------------------------------------------------------------------
    def _reply(self, via_peer: Peer, origin: str, req: int, advs: list[Advertisement]) -> None:
        if not advs:
            advs = []
        size = 64 + sum(a.wire_size() for a in advs)
        via_peer.send(origin, f"{self.KIND_PREFIX}-reply", payload=(req, advs), size_bytes=size)
        self.stats.reply_messages += 1

    def _on_reply(self, message: Message) -> None:
        req, advs = message.payload
        entry = self._pending.get((message.dst, req))
        if entry is None or entry.done:
            return
        entry.add(advs)
        entry.replies_seen += 1
        # Receiving a reply also teaches the local cache (JXTA behaviour).
        for adv in advs:
            self._peers[message.dst].cache.put(adv)
        if (
            entry.expected_replies is not None
            and entry.replies_seen >= entry.expected_replies
        ):
            self._complete((message.dst, req), entry)


class CentralIndexDiscovery(DiscoveryService):
    """Napster-style central index.

    "Napster is not a true P2P system since the availability of peers is
    located through a central database" — the baseline strategy.
    """

    KIND_PREFIX = "central"

    def __init__(self, query_window: float = 2.0):
        super().__init__(query_window)
        self.index_id: Optional[str] = None
        self._on_query = self._on_query

    def set_index(self, peer: Peer) -> None:
        """Designate the index node (must already be attached)."""
        self.peer(peer.peer_id)
        self.index_id = peer.peer_id

    def set_index_id(self, peer_id: str) -> None:
        """Designate a *remote* index by id (multi-process transports).

        The index peer lives in another OS process, so it cannot be
        attached locally; publishes and queries simply address frames
        to ``peer_id`` over the transport.
        """
        self.index_id = peer_id

    def _attach_extra(self, peer: Peer) -> None:
        peer.on("central-publish", self._on_publish)
        peer.on("central-query", self._on_query)

    def publish(self, peer: Peer, adv: Advertisement) -> None:
        if self.index_id is None:
            raise DiscoveryError("central index not designated")
        self.stats.publishes += 1
        peer.cache.put(adv)
        if peer.peer_id == self.index_id:
            return
        peer.send(self.index_id, "central-publish", payload=adv, size_bytes=adv.wire_size())

    def _send_query(self, peer: Peer, req: int, spec: QuerySpec, pending: _PendingQuery) -> None:
        if self.index_id is None:
            raise DiscoveryError("central index not designated")
        if peer.peer_id == self.index_id:
            return  # the index's own cache is the whole answer; query() read it
        pending.expected_replies = 1
        peer.send(self.index_id, "central-query", payload=(req, spec), size_bytes=128)
        self.stats.query_messages += 1

    def _on_query(self, message: Message) -> None:
        req, spec = message.payload
        index = self._peers[message.dst]
        hits = index.cache.query(index.sim.now, spec.adv_type, spec.name, spec.predicate)
        self._reply(index, message.src, req, hits)


class FloodingDiscovery(DiscoveryService):
    """Gnutella-style TTL flood over the overlay graph."""

    KIND_PREFIX = "flood"

    def __init__(self, ttl: int = 4, query_window: float = 2.0):
        super().__init__(query_window)
        if ttl < 1:
            raise DiscoveryError("flood TTL must be >= 1")
        self.ttl = ttl
        #: peer id → queries it has handled; created by its first query
        self._seen: dict[str, set[tuple[str, int]]] = {}
        self._on_query = self._on_query

    def _attach_extra(self, peer: Peer) -> None:
        peer.on("flood-query", self._on_query)

    def _seen_by(self, peer_id: str) -> set[tuple[str, int]]:
        seen = self._seen.get(peer_id)
        if seen is None:
            seen = self._seen[peer_id] = set()
        return seen

    def publish(self, peer: Peer, adv: Advertisement) -> None:
        # Flooding networks publish only locally; queries do the walking.
        self.stats.publishes += 1
        peer.cache.put(adv)

    def _send_query(self, peer: Peer, req: int, spec: QuerySpec, pending: _PendingQuery) -> None:
        self._seen_by(peer.peer_id).add((peer.peer_id, req))
        for nb in peer.network.neighbours(peer.peer_id):
            peer.send(
                nb,
                "flood-query",
                payload=(peer.peer_id, req, spec, self.ttl),
                size_bytes=128,
            )
            self.stats.query_messages += 1

    def _on_query(self, message: Message) -> None:
        origin, req, spec, ttl = message.payload
        me = self._peers[message.dst]
        key = (origin, req)
        seen = self._seen_by(me.peer_id)
        if key in seen:
            return
        seen.add(key)
        hits = me.cache.query(me.sim.now, spec.adv_type, spec.name, spec.predicate)
        if hits and me.peer_id != origin:
            self._reply(me, origin, req, hits)
        if ttl > 1:
            for nb in me.network.neighbours(me.peer_id):
                if nb == message.src:
                    continue
                me.send(
                    nb,
                    "flood-query",
                    payload=(origin, req, spec, ttl - 1),
                    size_bytes=128,
                )
                self.stats.query_messages += 1


class RendezvousDiscovery(DiscoveryService):
    """JXTA-style rendezvous super-peer discovery.

    Edge peers publish to their rendezvous; a query goes to the peer's
    rendezvous, which consults its own cache and forwards the query once
    to each other rendezvous.  Message cost per query is O(#rendezvous),
    independent of network size.
    """

    KIND_PREFIX = "rdv"

    def __init__(self, query_window: float = 2.0):
        super().__init__(query_window)
        self.rendezvous_ids: list[str] = []
        self._assigned: dict[str, str] = {}
        self._on_query = self._on_query
        self._on_forward = self._on_forward

    def add_rendezvous(self, peer: Peer) -> None:
        self.peer(peer.peer_id)
        if peer.peer_id not in self.rendezvous_ids:
            self.rendezvous_ids.append(peer.peer_id)

    def rendezvous_for(self, peer_id: str) -> str:
        """Deterministic edge→rendezvous assignment (round-robin by order)."""
        if not self.rendezvous_ids:
            raise DiscoveryError("no rendezvous peers designated")
        if peer_id in self.rendezvous_ids:
            return peer_id
        if peer_id not in self._assigned:
            idx = len(self._assigned) % len(self.rendezvous_ids)
            self._assigned[peer_id] = self.rendezvous_ids[idx]
        return self._assigned[peer_id]

    def _attach_extra(self, peer: Peer) -> None:
        peer.on("rdv-publish", self._on_publish)
        peer.on("rdv-query", self._on_query)
        peer.on("rdv-forward", self._on_forward)

    def publish(self, peer: Peer, adv: Advertisement) -> None:
        self.stats.publishes += 1
        peer.cache.put(adv)
        rdv = self.rendezvous_for(peer.peer_id)
        if rdv != peer.peer_id:
            peer.send(rdv, "rdv-publish", payload=adv, size_bytes=adv.wire_size())

    def _send_query(self, peer: Peer, req: int, spec: QuerySpec, pending: _PendingQuery) -> None:
        rdv_id = self.rendezvous_for(peer.peer_id)
        pending.expected_replies = len(self.rendezvous_ids)
        if rdv_id == peer.peer_id:
            # A rendezvous has read its own cache (query() did) and
            # forwards to the others.
            pending.expected_replies = len(self.rendezvous_ids) - 1
            if pending.expected_replies == 0:
                self._complete((peer.peer_id, req), pending)
                return
            for other in self.rendezvous_ids:
                if other != peer.peer_id:
                    peer.send(other, "rdv-forward", payload=(peer.peer_id, req, spec), size_bytes=128)
                    self.stats.query_messages += 1
        else:
            peer.send(rdv_id, "rdv-query", payload=(peer.peer_id, req, spec), size_bytes=128)
            self.stats.query_messages += 1

    def _on_query(self, message: Message) -> None:
        origin, req, spec = message.payload
        rdv = self._peers[message.dst]
        hits = rdv.cache.query(rdv.sim.now, spec.adv_type, spec.name, spec.predicate)
        self._reply(rdv, origin, req, hits)
        for other in self.rendezvous_ids:
            if other != rdv.peer_id:
                rdv.send(other, "rdv-forward", payload=(origin, req, spec), size_bytes=128)
                self.stats.query_messages += 1

    def _on_forward(self, message: Message) -> None:
        origin, req, spec = message.payload
        rdv = self._peers[message.dst]
        hits = rdv.cache.query(rdv.sim.now, spec.adv_type, spec.name, spec.predicate)
        self._reply(rdv, origin, req, hits)
