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

Under both, module distribution (E18) has one path:

* **coalescing** — concurrent ``ensure`` calls for the same unit share
  one in-flight fetch: one request, one download, every waiter woken
  with the same package;
* **peer transfer** — every fetch asks the portal's repository, which
  ships the package itself or forwards the request as a
  ``module-peer-fetch`` to a cache it has shipped that digest to (see
  :mod:`repro.mobility.repository`).  Such a holder serves from its
  cache, or parks the requester on its own in-flight download.  A
  holder that bounces the request, or a forwarded fetch that times out,
  sends the requester back to the portal, which then serves it itself.
  The repository stays the *version* authority — holders are pure
  content mirrors keyed by digest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..p2p.network import Message
from ..p2p.peer import Peer
from ..simkernel import Event
from .errors import MobilityError, ModuleNotFoundInRepo, RepositoryUnreachable
from .repository import PACKAGE_OVERHEAD, ModulePackage, forwards, send_package

__all__ = ["CacheStats", "ModuleCache", "ModuleSettings"]


@dataclass(frozen=True)
class ModuleSettings:
    """How a grid moves module code: one value for repository and caches."""

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
    #: downloads a holder peer served instead of the repository
    peer_fetches: int = 0
    #: fetches sent back to the repository after a bounce or a timeout
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
    request_id: int
    #: events succeeded with the package (first one is the initiator's)
    waiters: list[Event]
    done: bool = False
    #: the fetch went back to the repository once (after a bounce or a
    #: timeout); a second miss fails it
    fell_back: bool = False
    #: open ``module.fetch`` span while the request is in flight
    span: Optional[object] = None
    #: chunk reassembly state: the distinct sequence numbers seen, and
    #: the package chunk 0 carries
    chunks: set = field(default_factory=set)
    pkg: Optional[ModulePackage] = None
    #: remote ``module-peer-fetch`` requesters queued on this download:
    #: (requester peer id, their request id, wanted digest)
    remote_waiters: list = field(default_factory=list)


class ModuleCache:
    """LRU module cache on one peer, fed by a remote repository.

    ``modules`` carries the grid-wide transfer settings.  Every cache
    also serves the ``module-peer-fetch`` requests the repository
    forwards to it.
    """

    def __init__(
        self,
        peer: Peer,
        repository_host: str,
        capacity_bytes: int = 10_000_000,
        policy: str = "on_demand",
        modules: ModuleSettings = ModuleSettings(),
    ):
        if policy not in ("on_demand", "sticky"):
            raise MobilityError(f"unknown cache policy {policy!r}")
        if capacity_bytes <= 0:
            raise MobilityError("capacity_bytes must be positive")
        self.peer = peer
        self.repository_host = repository_host
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.fetch_timeout = modules.cache_fetch_timeout
        self.chunk_bytes = modules.module_chunk_bytes
        self.stats = CacheStats()
        self._cached: OrderedDict[str, ModulePackage] = OrderedDict()
        self._pending: dict[int, _Pending] = {}
        #: unit name → its in-flight fetch (coalescing lookup)
        self._inflight: dict[str, _Pending] = {}
        peer.on("module-package", self._on_package)
        peer.on("module-chunk", self._on_chunk)
        peer.on("module-peer-fetch", self._on_peer_fetch)

    # -- inspection -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(p.code_size for p in self._cached.values())

    def telemetry_sample(self) -> dict[str, int]:
        """Cumulative counters for the live telemetry sampler."""
        stats = self.stats
        return {
            "requests": stats.requests,
            "hits": stats.hits,
            "fetches": stats.fetches,
            "peer_fetches": stats.peer_fetches,
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
                tracer.instant(
                    "cache.coalesce", category="mobility",
                    track=self.peer.peer_id, unit=unit_name,
                )
            ev = self.peer.sim.event()
            inflight.waiters.append(ev)
            return ev
        return self._fetch(unit_name)

    # -- fetch state machine ------------------------------------------------------
    def _fetch(self, unit_name: str) -> Event:
        request_id = self.peer.sim.next_id()
        pending = _Pending(
            unit_name=unit_name, request_id=request_id,
            waiters=[self.peer.sim.event()],
        )
        self._pending[request_id] = pending
        self._inflight[unit_name] = pending
        self.stats.fetches += 1
        tracer = self.peer.sim.tracer
        if tracer.enabled:
            pending.span = tracer.begin(
                "module.fetch", category="mobility", track=self.peer.peer_id,
                unit=unit_name, repository=self.repository_host,
            )
        self._send_repo_fetch(pending)
        return pending.waiters[0]

    def _send_repo_fetch(self, pending: _Pending) -> None:
        """Arm this attempt's timeout, then ask the repository (an offline
        peer's send raises, and the timeout still ends the fetch)."""
        self.peer.sim.call_at(
            self.peer.sim.now + self.fetch_timeout,
            self._expire, pending, pending.fell_back,
        )
        self.peer.send(
            self.repository_host,
            "module-fetch",
            payload=(self.peer.peer_id, pending.request_id, pending.unit_name),
            size_bytes=96,
        )

    def _expire(self, pending: _Pending, fell_back: bool) -> None:
        """Fetch timeout: fail the fetch unless a reply settled it.

        Where the repository forwards, the fetch may have gone to a holder
        that died: the first timeout there asks the repository again.
        """
        if pending.done or pending.fell_back != fell_back:
            return  # settled, or a later attempt owns the deadline
        if forwards(self.peer.network) and not fell_back:
            self._fall_back(pending)
            return
        self._fail(
            pending,
            RepositoryUnreachable(
                f"no reply for module {pending.unit_name!r} within "
                f"{self.fetch_timeout}s"
            ),
            outcome="timeout",
        )

    def _fall_back(self, pending: _Pending) -> None:
        """Send the fetch back to the repository, which then serves it."""
        pending.fell_back = True
        self.stats.peer_fallbacks += 1
        self._send_repo_fetch(pending)

    # -- replies -------------------------------------------------------------------
    def _on_package(self, message: Message) -> None:
        request_id, unit_name, pkg = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        if pkg is None:
            if message.src != self.repository_host:
                # The holder the repository named has no copy (evicted, or
                # its own download failed): back to the authority.
                if not pending.fell_back:
                    self._fall_back(pending)
                return
            self._fail(
                pending,
                ModuleNotFoundInRepo(f"repository has no {unit_name!r}"),
                outcome="not-found",
            )
            return
        self._absorb(pending, pkg, message.src)

    def _on_chunk(self, message: Message) -> None:
        request_id, unit_name, pkg, seq, total = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.done:
            return
        if pkg is not None:
            pending.pkg = pkg
        # Distinct sequence numbers: a duplicated chunk must not stand in
        # for a missing one.
        pending.chunks.add(seq)
        if len(pending.chunks) >= total and pending.pkg is not None:
            self._absorb(pending, pending.pkg, message.src)

    def _absorb(self, pending: _Pending, pkg: ModulePackage, src: str) -> None:
        """Install a package downloaded from ``src`` and wake every waiter."""
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
        source = "repo" if src == self.repository_host else "peer"
        if source == "peer":
            self.stats.peer_fetches += 1
        self._cached[unit_name] = pkg
        self._cached.move_to_end(unit_name)
        self._evict_to_fit()
        self._settle(
            pending, pkg, outcome=outcome, version=pkg.version,
            nbytes=pkg.code_size, source=source,
        )

    def _fail(self, pending: _Pending, exc: Exception, outcome: str) -> None:
        self.stats.failures += 1
        self._settle(pending, None, exc, outcome=outcome)

    def _settle(self, pending: _Pending, pkg, exc=None, **span_attrs) -> None:
        """End a fetch: close its span, wake its waiters, answer parked peers."""
        if pending.span is not None:
            pending.span.end(**span_attrs)
        self._finish(pending)
        for ev in pending.waiters:
            if exc is None:
                ev.succeed(pkg)
            else:
                ev.fail(exc)
        self._flush_remote(pending, pkg)

    def _finish(self, pending: _Pending) -> None:
        pending.done = True
        if self._inflight.get(pending.unit_name) is pending:
            del self._inflight[pending.unit_name]
        self._pending.pop(pending.request_id, None)

    def _evict_to_fit(self) -> None:
        while self.used_bytes > self.capacity_bytes and len(self._cached) > 1:
            self._cached.popitem(last=False)
            self.stats.evictions += 1

    # -- the holder role ------------------------------------------------------------
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
        self._bounce(requester, request_id, unit_name)

    def _bounce(self, requester: str, request_id: int, unit_name: str) -> None:
        """Tell a remote requester this peer has no copy to serve."""
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
                self._bounce(requester, request_id, pending.unit_name)
        pending.remote_waiters.clear()

    def note_stale_use(self) -> None:
        """Record that a stale cached module was executed (E8 metric)."""
        self.stats.stale_uses += 1
