"""The module repository — where executable units live (system S7).

"This dynamic download of code, depending on what is to be executed by a
peer, allows the peer to only host code that is necessary – and overcomes
the problem of having inconsistent versions of executables (as the
executable must be requested from the owner whenever an execution is to
be undertaken)."

A :class:`ModuleRepository` is hosted on one peer (typically the
controller's, or the paper's "pre-defined portal") and answers
``module-fetch`` messages with a :class:`ModulePackage`.  On the TCP
transport the package crosses the process boundary with its unit class
encoded *by reference* (module-qualified name), so a worker process
imports — rather than deserialises — the code it fetched, matching the
paper's download-on-demand model.  Publishing a new
version of a unit bumps the authoritative version; peers that fetch on
demand always receive the latest, while peers that reuse a stale cache can
be *measured* doing so (experiment E8).

Packages are **content-addressed**: every :class:`ModulePackage` carries a
deterministic digest of its identity (name, version, code size), so any
peer holding the same digest holds the identical package.  The
repository decides where each fetch's bytes come from.  It remembers
every peer it has shipped, or is still shipping, a digest to, and where
links serialise (``Transport.contention``) it sends each fetch to the
source with the earliest modelled finish: the fabric's
``transfer_time`` plus the uplink time already assigned to that source,
a tie going to the repository.  A fetch for a holder is forwarded to it
as a ``module-peer-fetch``; a fetch that comes back (the holder bounced
it, or it timed out) drops that holder and is served here.  On an
uncontended fabric no uplink has a backlog, so the repository always
ships the package itself (see docs/performance.md, "Module
distribution").  Large packages are split into fixed-size
``module-chunk`` messages (``chunk_bytes``) so transfers pipeline over a
contended uplink rather than holding it for one monolithic reply.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Type

from ..core.registry import UnitRegistry
from ..core.units import Unit
from ..p2p.network import Message, Transport, chunk_sizes
from ..p2p.peer import Peer
from .errors import ModuleNotFoundInRepo

__all__ = [
    "ModulePackage",
    "ModuleRepository",
    "RepoStats",
    "content_digest",
    "forwards",
    "send_package",
]

#: modelled envelope bytes around a full package reply / a chunk.
PACKAGE_OVERHEAD = 64
CHUNK_OVERHEAD = 32


def content_digest(name: str, version: str, code_size: int) -> str:
    """Deterministic content address of one package build.

    The simulation ships class objects, not real byte code, so the digest
    is derived from the package identity — two packages with equal
    (name, version, code_size) are the *same content* everywhere, which
    is exactly the property replica resolution needs.
    """
    key = f"{name}@{version}:{code_size}".encode()
    return hashlib.sha256(key).hexdigest()[:16]


def forwards(transport: Transport) -> bool:
    """Whether a repository on ``transport`` may forward fetches to holders.

    Only where links serialise does a source build an uplink backlog a
    holder can beat.  On an uncontended simulator, and over sockets
    (whose bandwidth is not modelled), the repository serves every fetch.
    """
    return transport.contention


@dataclass(frozen=True)
class ModulePackage:
    """One shipped unit implementation (the 'byte code' of the paper)."""

    name: str
    version: str
    code_size: int
    cls: Type[Unit]
    #: content address; filled from the identity fields when omitted
    digest: str = ""

    def __post_init__(self):
        if not self.digest:
            object.__setattr__(
                self, "digest", content_digest(self.name, self.version, self.code_size)
            )


@dataclass
class RepoStats:
    fetch_requests: int = 0
    packages_served: int = 0
    bytes_served: int = 0
    misses: int = 0
    #: fetches forwarded to a holder peer as ``module-peer-fetch``
    forwards: int = 0
    #: ``module-chunk`` messages sent (0 unless ``chunk_bytes`` is set)
    chunks_sent: int = 0


def send_package(
    peer: Peer,
    dst: str,
    request_id: int,
    unit_name: str,
    pkg: ModulePackage,
    chunk_bytes: Optional[int] = None,
) -> int:
    """Ship ``pkg`` to ``dst``; chunked when larger than ``chunk_bytes``.

    Shared by the repository and holder caches so both speak the
    same wire protocol.  Returns the number of messages sent.  Package
    metadata rides only in chunk 0; the receiver completes reassembly
    when every sequence number has arrived.
    """
    if chunk_bytes is None or pkg.code_size <= chunk_bytes:
        peer.send(
            dst,
            "module-package",
            payload=(request_id, unit_name, pkg),
            size_bytes=PACKAGE_OVERHEAD + pkg.code_size,
        )
        return 1
    sizes = chunk_sizes(pkg.code_size, chunk_bytes)
    total = len(sizes)
    for seq, nbytes in enumerate(sizes):
        peer.send(
            dst,
            "module-chunk",
            payload=(request_id, unit_name, pkg if seq == 0 else None, seq, total),
            size_bytes=CHUNK_OVERHEAD + nbytes,
        )
    return total


class ModuleRepository:
    """Authoritative module store served by one peer."""

    def __init__(
        self,
        peer: Peer,
        registry: UnitRegistry,
        chunk_bytes: Optional[int] = None,
    ):
        self.peer = peer
        self.registry = registry
        self.chunk_bytes = chunk_bytes
        self.stats = RepoStats()
        # Version overrides let experiments publish "new releases" without
        # defining new classes.
        self._version_overrides: dict[str, str] = {}
        #: digest → {holder: modelled time its copy is complete}, in the
        #: order the holders were named (contended fabrics only)
        self._holders: dict[str, dict[str, float]] = {}
        #: source → modelled time the uplink work assigned to it ends
        self._uplink_free: dict[str, float] = {}
        #: (requester, unit) → (request id, holder) of the last forward
        self._forwarded: dict[tuple[str, str], tuple[int, str]] = {}
        peer.on("module-fetch", self._on_fetch)

    # -- authoritative versions -----------------------------------------------
    def current_version(self, unit_name: str) -> str:
        desc = self.registry.lookup(unit_name)
        return self._version_overrides.get(desc.name, desc.version)

    def publish_new_version(self, unit_name: str, version: str) -> None:
        """Release a new version of a hosted unit (same code object)."""
        desc = self.registry.lookup(unit_name)
        self._version_overrides[desc.name] = version

    def package(self, unit_name: str) -> ModulePackage:
        """Build the package for the current version of a unit."""
        try:
            desc = self.registry.lookup(unit_name)
        except Exception as exc:
            self.stats.misses += 1
            raise ModuleNotFoundInRepo(str(exc)) from exc
        return ModulePackage(
            name=desc.name,
            version=self.current_version(desc.name),
            code_size=desc.code_size,
            cls=desc.cls,
        )

    # -- network protocol ----------------------------------------------------------
    def _on_fetch(self, message: Message) -> None:
        requester, request_id, unit_name = message.payload
        self.stats.fetch_requests += 1
        try:
            pkg: Optional[ModulePackage] = self.package(unit_name)
        except ModuleNotFoundInRepo:
            pkg = None
        tracer = self.peer.sim.tracer
        if pkg is None:
            if tracer.enabled:
                tracer.instant(
                    "repo.fetch", category="mobility", track=self.peer.peer_id,
                    unit=unit_name, requester=requester,
                    served=False, nbytes=PACKAGE_OVERHEAD,
                )
            self.peer.send(
                requester,
                "module-package",
                payload=(request_id, unit_name, None),
                size_bytes=PACKAGE_OVERHEAD,
            )
            return
        if forwards(self.peer.network):
            source = self._source(requester, request_id, pkg)
            if source != self.peer.peer_id:
                self.stats.forwards += 1
                if tracer.enabled:
                    tracer.instant(
                        "repo.forward", category="mobility",
                        track=self.peer.peer_id, unit=unit_name,
                        requester=requester, holder=source,
                    )
                self.peer.send(
                    source,
                    "module-peer-fetch",
                    payload=(requester, request_id, unit_name, pkg.digest),
                    size_bytes=96,
                )
                return
        self.stats.packages_served += 1
        self.stats.bytes_served += pkg.code_size
        if tracer.enabled:
            tracer.instant(
                "repo.fetch", category="mobility", track=self.peer.peer_id,
                unit=unit_name, requester=requester,
                served=True, nbytes=PACKAGE_OVERHEAD + pkg.code_size,
            )
        sent = send_package(
            self.peer, requester, request_id, unit_name, pkg,
            chunk_bytes=self.chunk_bytes,
        )
        if sent > 1:
            self.stats.chunks_sent += sent

    def _source(self, requester: str, request_id: int, pkg: ModulePackage) -> str:
        """Where ``requester``'s bytes come from: this peer or a holder.

        The earliest modelled finish wins; a tie goes to this peer, then
        to the holder named first.  A fetch asked again under the same
        request id (its holder bounced it or went quiet) drops that
        holder and is served here.  The requester becomes a holder,
        complete at its modelled finish.
        """
        net, now, me = self.peer.network, self.peer.sim.now, self.peer.peer_id
        size = PACKAGE_OVERHEAD + pkg.code_size
        holders = self._holders.setdefault(pkg.digest, {})
        key = (requester, pkg.name)
        last = self._forwarded.pop(key, None)
        retry = last is not None and last[0] == request_id
        if retry:
            holders.pop(last[1], None)

        def start(src: str, ready: float) -> float:
            return max(now, ready, self._uplink_free.get(src, now))

        best, best_start = me, start(me, now)
        best_end = best_start + net.transfer_time(me, requester, size)
        if not retry:
            for holder, ready in holders.items():
                if holder == requester or not net.is_online(holder):
                    continue
                begin = start(holder, ready)
                end = begin + net.transfer_time(holder, requester, size)
                if end < best_end:
                    best, best_start, best_end = holder, begin, end
        self._uplink_free[best] = best_start + size / net.profile(best).up_bps
        holders.setdefault(requester, best_end)
        if best != me:
            self._forwarded[key] = (request_id, best)
        return best
