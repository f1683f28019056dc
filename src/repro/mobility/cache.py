"""The per-device module cache with on-demand download.

"A resource-constrained device may also decide to selectively download
and release executable modules based on dependencies inherent within the
connectivity graph.  This dynamic model is therefore particular useful
for handheld and mobile devices."

The cache supports two policies:

* ``on_demand`` (default, the paper's model) — every execution request
  re-validates against the repository, so versions are always current;
* ``sticky`` — a cached module is reused without re-validation; cheaper
  in messages but can run stale code (the problem the paper says the
  on-demand model "overcomes").  Experiment E8 measures the trade.

On top of the policies sit three distribution mechanisms (E18); the
last two switch on together with ``ModuleSettings.module_replicas > 0``:

* **coalescing** (always on) — concurrent ``ensure`` calls for the same
  unit share one in-flight fetch: one request, one download, every
  waiter woken with the same package;
* **digest revalidation** — an ``on_demand`` re-check sends the cached
  content digest with the fetch; a matching repository answers with a
  tiny ``not-modified`` reply instead of the full bytes;
* **cooperative replicas** (given a ``discovery``) — a cache that stores a
  package publishes an ``ADV_MODULE`` replica advertisement and serves
  ``module-peer-fetch`` requests from other caches.  A miss then costs a
  cheap ``module-head`` to the authority plus a transfer from the
  nearest replica, falling back to the repository only when no replica
  holds the digest.  The repository stays the *version* authority —
  replicas are pure content mirrors keyed by digest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from ..p2p.advertisement import (
    ADV_MODULE,
    AttrPredicate,
    module_adv_name,
    module_replica_advertisement,
)
from ..p2p.network import Message
from ..p2p.peer import Peer
from ..simkernel import Event
from .errors import MobilityError, ModuleNotFoundInRepo, RepositoryUnreachable
from .repository import NOT_MODIFIED, PACKAGE_OVERHEAD, ModulePackage, send_package

__all__ = ["CacheStats", "ModuleCache", "ModuleSettings"]

#: seconds a replica-lookup query collects answers before the fetch goes out
RESOLVE_WINDOW = 0.5


@dataclass(frozen=True)
class ModuleSettings:
    """How a grid moves module code: one value for repository, caches, controller."""

    #: pre-seed each group's modules onto this many workers before
    #: deploying, and let every cache serve as a cooperative replica
    #: (discovery-routed fetches, digest revalidation); 0 = repository only
    module_replicas: int = 0
    #: split package transfers larger than this into pipelined chunks;
    #: ``None`` ships each package as one message
    module_chunk_bytes: Optional[int] = None
    #: per-fetch timeout of a cache — raise it for multi-megabyte
    #: packages over consumer DSL
    cache_fetch_timeout: float = 30.0


@dataclass
class CacheStats:
    requests: int = 0
    hits: int = 0
    fetches: int = 0
    bytes_downloaded: int = 0
    evictions: int = 0
    stale_uses: int = 0
    refreshes: int = 0
    failures: int = 0
    #: ``ensure`` calls satisfied by attaching to an in-flight fetch
    coalesced: int = 0
    #: fetches resolved by a digest match (head check or not-modified)
    revalidations: int = 0
    #: downloads satisfied by a replica peer instead of the repository
    peer_fetches: int = 0
    #: replica fetches that missed and fell back to the repository
    peer_fallbacks: int = 0
    #: ``module-peer-fetch`` requests this cache answered with a package
    peer_serves: int = 0
    #: ``module-peer-fetch`` requests this cache had to decline
    peer_serve_misses: int = 0
    #: bytes shipped to other caches (replica-side upload)
    bytes_served: int = 0
    #: remote requests parked on an in-flight download, served on arrival
    remote_coalesced: int = 0


@dataclass
class _Pending:
    """One in-flight fetch; every concurrent requester hangs off it."""

    unit_name: str
    #: events succeeded with the package (first one is the initiator's)
    waiters: list[Event]
    done: bool = False
    #: open ``module.fetch`` span while the request is in flight
    span: Optional[object] = None
    #: where the bytes were requested from: ``repo`` | ``peer``
    source: str = "repo"
    #: authoritative digest/size from the head check (replica path)
    want_digest: Optional[str] = None
    code_size: int = 0
    #: chunk reassembly state (chunked transfers)
    chunks_seen: int = 0
    pkg: Optional[ModulePackage] = None
    #: remote ``module-peer-fetch`` requesters queued on this download:
    #: (requester peer id, their request id, wanted digest)
    remote_waiters: list = field(default_factory=list)


class ModuleCache:
    """LRU module cache on one peer, fed by a remote repository.

    ``modules`` carries the grid-wide transfer settings.  With
    ``module_replicas > 0`` the cache is also a *replica*: it advertises
    what it holds through ``discovery``, serves other caches, and an
    ``on_demand`` re-check sends the cached content digest
    (``not-modified`` answer on a match) instead of always pulling a
    full reply (the seed protocol).
    """

    def __init__(
        self,
        peer: Peer,
        repository_host: str,
        capacity_bytes: int = 10_000_000,
        policy: str = "on_demand",
        modules: ModuleSettings = ModuleSettings(),
        discovery: Optional[Any] = None,
    ):
        if policy not in ("on_demand", "sticky"):
            raise MobilityError(f"unknown cache policy {policy!r}")
        if capacity_bytes <= 0:
            raise MobilityError("capacity_bytes must be positive")
        cooperative = modules.module_replicas > 0
        self.peer = peer
        self.repository_host = repository_host
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.fetch_timeout = modules.cache_fetch_timeout
        self.discovery = discovery if cooperative else None
        self.revalidate = "digest" if cooperative else "full"
        self.chunk_bytes = modules.module_chunk_bytes
        self.stats = CacheStats()
        self._cached: OrderedDict[str, ModulePackage] = OrderedDict()
        self._pending: dict[int, _Pending] = {}
        #: unit name → its in-flight fetch (coalescing lookup)
        self._inflight: dict[str, _Pending] = {}
        peer.on("module-package", self._on_package)
        peer.on("module-chunk", self._on_chunk)
        peer.on("module-head-reply", self._on_head_reply)
        peer.on("module-peer-fetch", self._on_peer_fetch)

    # -- inspection -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(p.code_size for p in self._cached.values())

    def cached_names(self) -> list[str]:
        return list(self._cached)

    def cached_version(self, unit_name: str) -> Optional[str]:
        pkg = self._cached.get(unit_name)
        return pkg.version if pkg else None

    def telemetry_sample(self) -> dict[str, int]:
        """Cumulative counters for the live telemetry sampler."""
        stats = self.stats
        return {
            "requests": stats.requests,
            "hits": stats.hits,
            "fetches": stats.fetches,
            "peer_fetches": stats.peer_fetches,
            "revalidations": stats.revalidations,
            "bytes_downloaded": stats.bytes_downloaded,
            "cached_units": len(self._cached),
        }

    # -- the on-demand protocol ---------------------------------------------------
    def ensure(self, unit_name: str) -> Event:
        """Make ``unit_name`` locally executable.

        Returns an event yielding the :class:`ModulePackage`.  Under the
        ``sticky`` policy a cached package is returned immediately; under
        ``on_demand`` the repository is always consulted (refreshing the
        cached copy if the version moved).  A second ``ensure`` while the
        same unit is already in flight joins that fetch instead of
        issuing another request.
        """
        self.stats.requests += 1
        cached = self._cached.get(unit_name)
        if cached is not None and self.policy == "sticky":
            self.stats.hits += 1
            self._cached.move_to_end(unit_name)
            tracer = self.peer.sim.tracer
            if tracer.enabled:
                tracer.metrics.counter("mobility.cache_hits").inc()
                tracer.instant(
                    "cache.hit", category="mobility", track=self.peer.peer_id,
                    unit=unit_name, policy=self.policy, version=cached.version,
                )
            ev = self.peer.sim.event()
            ev.succeed(cached)
            return ev
        inflight = self._inflight.get(unit_name)
        if inflight is not None:
            # Coalesce: the bytes are already on their way — one upstream
            # transfer no matter how many local requesters.
            self.stats.coalesced += 1
            tracer = self.peer.sim.tracer
            if tracer.enabled:
                tracer.metrics.counter("mobility.coalesced").inc()
                tracer.instant(
                    "cache.coalesce", category="mobility",
                    track=self.peer.peer_id, unit=unit_name,
                )
            ev = self.peer.sim.event()
            inflight.waiters.append(ev)
            return ev
        return self._fetch(unit_name)

    def release(self, unit_name: str) -> None:
        """Explicitly drop a module ("download and release ... on-demand")."""
        if self._cached.pop(unit_name, None) is None:
            raise MobilityError(f"module {unit_name!r} is not cached")

    # -- fetch state machine ------------------------------------------------------
    def _fetch(self, unit_name: str) -> Event:
        request_id = self.peer.sim.next_id()
        pending = _Pending(unit_name=unit_name, waiters=[self.peer.sim.event()])
        self._pending[request_id] = pending
        self._inflight[unit_name] = pending
        self.stats.fetches += 1
        tracer = self.peer.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("mobility.fetches").inc()
            pending.span = tracer.begin(
                "module.fetch", category="mobility", track=self.peer.peer_id,
                unit=unit_name, repository=self.repository_host,
            )
        if self.discovery is not None:
            # Replica path: a cheap metadata probe first — the reply
            # either revalidates the cached copy or names the digest to
            # hunt replicas for.
            self.peer.send(
                self.repository_host,
                "module-head",
                payload=(self.peer.peer_id, request_id, unit_name),
                size_bytes=64,
            )
        else:
            self._send_repo_fetch(request_id, unit_name)

        self.peer.sim.call_at(
            self.peer.sim.now + self.fetch_timeout, self._expire, pending
        )
        return pending.waiters[0]

    def _expire(self, pending: _Pending) -> None:
        """Fetch timeout: fail the fetch unless a reply settled it."""
        if not pending.done:
            self._fail(
                pending,
                RepositoryUnreachable(
                    f"no reply for module {pending.unit_name!r} within "
                    f"{self.fetch_timeout}s"
                ),
                outcome="timeout",
            )

    def _send_repo_fetch(self, request_id: int, unit_name: str) -> None:
        cached = self._cached.get(unit_name)
        cached_digest = (
            cached.digest
            if cached is not None and self.revalidate == "digest"
            else None
        )
        self.peer.send(
            self.repository_host,
            "module-fetch",
            payload=(self.peer.peer_id, request_id, unit_name, cached_digest),
            size_bytes=96,
        )

    def _on_head_reply(self, message: Message) -> None:
        request_id, unit_name, meta = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        if meta is None:
            self._fail(
                pending,
                ModuleNotFoundInRepo(f"repository has no {unit_name!r}"),
                outcome="not-found",
            )
            return
        _name, version, code_size, digest = meta
        pending.want_digest = digest
        pending.code_size = code_size
        cached = self._cached.get(unit_name)
        if cached is not None and cached.digest == digest:
            # Authoritative content unchanged — the cached copy is current.
            self._revalidated(pending, cached)
            return
        self.peer.sim.process(
            self._resolve_proc(pending, request_id, unit_name),
            name=f"modresolve/{self.peer.peer_id}/{request_id}",
        )

    def _resolve_proc(self, pending: _Pending, request_id: int, unit_name: str):
        """Find the nearest replica holding the wanted digest, or fall back."""
        want = pending.want_digest
        me = self.peer.peer_id
        query = self.discovery.query(
            self.peer,
            adv_type=ADV_MODULE,
            name=module_adv_name(unit_name),
            # Wire-safe predicate (frames may cross process boundaries).
            predicate=AttrPredicate.make(
                equals={"digest": want}, not_equals={"host": me}
            ),
            window=RESOLVE_WINDOW,
        )
        advs = yield query
        if pending.done:
            return
        network = self.peer.network
        hosts = [
            h
            for h in dict.fromkeys(adv.attributes["host"] for adv in advs)
            if network.is_online(h)
        ]
        if not hosts:
            pending.source = "repo"
            self._send_repo_fetch(request_id, unit_name)
            return
        # Nearest replica by modelled transfer time; ties rotate by
        # request id so simultaneous fetchers spread over equal replicas.
        scored = sorted(
            (network.transfer_time(h, me, pending.code_size), h) for h in hosts
        )
        best = scored[0][0]
        tied = [h for t, h in scored if t == best]
        replica = tied[request_id % len(tied)]
        pending.source = "peer"
        self.peer.send(
            replica,
            "module-peer-fetch",
            payload=(me, request_id, unit_name, want),
            size_bytes=96,
        )

    # -- replies -------------------------------------------------------------------
    def _on_package(self, message: Message) -> None:
        request_id, unit_name, pkg = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        if isinstance(pkg, str) and pkg == NOT_MODIFIED:
            cached = self._cached.get(unit_name)
            if cached is None:
                # Evicted between request and reply: nothing to revalidate
                # against any more — pull the full package.
                pending.source = "repo"
                self.peer.send(
                    self.repository_host,
                    "module-fetch",
                    payload=(self.peer.peer_id, request_id, unit_name, None),
                    size_bytes=96,
                )
                return
            self._revalidated(pending, cached)
            return
        if pkg is None:
            if pending.source == "peer":
                # The replica lost it (evicted, version moved): fall back
                # to the authority rather than failing the ensure.
                self.stats.peer_fallbacks += 1
                pending.source = "repo"
                self._send_repo_fetch(request_id, unit_name)
                return
            self.stats.failures += 1
            if pending.span is not None:
                pending.span.end(outcome="not-found")
            self._finish(pending)
            exc = ModuleNotFoundInRepo(f"repository has no {unit_name!r}")
            for ev in pending.waiters:
                ev.fail(exc)
            self._flush_remote(pending, None)
            return
        self._absorb(pending, pkg)

    def _on_chunk(self, message: Message) -> None:
        request_id, unit_name, pkg, _seq, total = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        if pkg is not None:
            pending.pkg = pkg
        pending.chunks_seen += 1
        if pending.chunks_seen >= total and pending.pkg is not None:
            self._absorb(pending, pending.pkg)

    def _revalidated(self, pending: _Pending, cached: ModulePackage) -> None:
        """A digest match confirmed the cached copy without a download."""
        self.stats.hits += 1
        self.stats.revalidations += 1
        self._cached.move_to_end(pending.unit_name)
        tracer = self.peer.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("mobility.cache_hits").inc()
            tracer.metrics.counter("mobility.revalidations").inc()
        if pending.span is not None:
            pending.span.end(
                outcome="revalidate", version=cached.version, nbytes=0
            )
        self._finish(pending)
        for ev in pending.waiters:
            ev.succeed(cached)
        self._flush_remote(pending, cached)

    def _absorb(self, pending: _Pending, pkg: ModulePackage) -> None:
        """Install a downloaded package and wake every waiter."""
        unit_name = pending.unit_name
        previous = self._cached.get(unit_name)
        if previous is not None:
            if previous.version == pkg.version:
                self.stats.hits += 1
                outcome = "hit"
            else:
                self.stats.refreshes += 1
                outcome = "refresh"
        else:
            outcome = "new"
        self.stats.bytes_downloaded += pkg.code_size
        if pending.source == "peer":
            self.stats.peer_fetches += 1
        self._cached[unit_name] = pkg
        self._cached.move_to_end(unit_name)
        self._evict_to_fit()
        if pending.span is not None:
            tracer = self.peer.sim.tracer
            if tracer.enabled:
                if outcome == "hit":
                    tracer.metrics.counter("mobility.cache_hits").inc()
                else:
                    tracer.metrics.counter("mobility.cache_misses").inc()
            pending.span.end(
                outcome=outcome, version=pkg.version, nbytes=pkg.code_size,
                source=pending.source,
            )
        self._finish(pending)
        for ev in pending.waiters:
            ev.succeed(pkg)
        self._flush_remote(pending, pkg)
        if self.discovery is not None:
            self._advertise(pkg)

    def _fail(self, pending: _Pending, exc: Exception, outcome: str) -> None:
        self.stats.failures += 1
        if pending.span is not None:
            pending.span.end(outcome=outcome)
        self._finish(pending)
        for ev in pending.waiters:
            ev.fail(exc)
        self._flush_remote(pending, None)

    def _finish(self, pending: _Pending) -> None:
        pending.done = True
        if self._inflight.get(pending.unit_name) is pending:
            del self._inflight[pending.unit_name]
        stale = [rid for rid, p in self._pending.items() if p is pending]
        for rid in stale:
            del self._pending[rid]

    def _evict_to_fit(self) -> None:
        while self.used_bytes > self.capacity_bytes and len(self._cached) > 1:
            self._cached.popitem(last=False)
            self.stats.evictions += 1

    # -- the replica role ----------------------------------------------------------
    def _advertise(self, pkg: ModulePackage) -> None:
        adv = module_replica_advertisement(
            pkg.name, self.peer.peer_id, pkg.version, pkg.digest, pkg.code_size
        )
        self.discovery.publish(self.peer, adv)

    def _on_peer_fetch(self, message: Message) -> None:
        requester, request_id, unit_name, want_digest = message.payload
        pkg = self._cached.get(unit_name)
        if pkg is not None and (want_digest is None or pkg.digest == want_digest):
            self._serve(requester, request_id, unit_name, pkg)
            return
        inflight = self._inflight.get(unit_name)
        if inflight is not None:
            # The bytes are already inbound here: park the remote requester
            # and serve it on arrival — one upstream transfer for N peers.
            self.stats.remote_coalesced += 1
            inflight.remote_waiters.append((requester, request_id, want_digest))
            return
        self.stats.peer_serve_misses += 1
        self.peer.send(
            requester,
            "module-package",
            payload=(request_id, unit_name, None),
            size_bytes=PACKAGE_OVERHEAD,
        )

    def _serve(
        self, requester: str, request_id: int, unit_name: str, pkg: ModulePackage
    ) -> None:
        self.stats.peer_serves += 1
        self.stats.bytes_served += pkg.code_size
        self._cached.move_to_end(unit_name)
        tracer = self.peer.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("mobility.peer_serves").inc()
            tracer.instant(
                "cache.serve", category="mobility", track=self.peer.peer_id,
                unit=unit_name, requester=requester, nbytes=pkg.code_size,
            )
        send_package(
            self.peer, requester, request_id, unit_name, pkg,
            chunk_bytes=self.chunk_bytes,
        )

    def _flush_remote(self, pending: _Pending, pkg: Optional[ModulePackage]) -> None:
        """Answer remote requesters parked on this fetch (or bounce them)."""
        for requester, request_id, want_digest in pending.remote_waiters:
            if pkg is not None and (
                want_digest is None or pkg.digest == want_digest
            ):
                self._serve(requester, request_id, pending.unit_name, pkg)
            else:
                self.stats.peer_serve_misses += 1
                self.peer.send(
                    requester,
                    "module-package",
                    payload=(request_id, pending.unit_name, None),
                    size_bytes=PACKAGE_OVERHEAD,
                )
        pending.remote_waiters.clear()

    def note_stale_use(self) -> None:
        """Record that a stale cached module was executed (E8 metric)."""
        self.stats.stale_uses += 1
