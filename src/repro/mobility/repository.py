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
deterministic digest of its identity (name, version, code size).  A
``module-head`` request returns just the authoritative metadata, so a
:class:`~repro.mobility.cache.ModuleCache` can decide *where* to pull the
bytes from — any replica peer holding the same digest serves the
identical package (see docs/performance.md, "Module distribution").
Large packages are split into fixed-size ``module-chunk`` messages
(``chunk_bytes``) so transfers pipeline over a contended uplink rather
than holding it for one monolithic reply.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Type

from ..core.registry import UnitRegistry
from ..core.units import Unit
from ..p2p.network import Message, chunk_sizes
from ..p2p.peer import Peer
from .errors import ModuleNotFoundInRepo

__all__ = [
    "ModulePackage",
    "ModuleRepository",
    "RepoStats",
    "content_digest",
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
    #: metadata-only ``module-head`` requests answered
    head_requests: int = 0
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

    Shared by the repository and replica-serving caches so both speak the
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
        peer.on("module-fetch", self._on_fetch)
        peer.on("module-head", self._on_head)

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

    def _on_head(self, message: Message) -> None:
        """Answer a metadata probe: (name, version, code_size, digest)."""
        requester, request_id, unit_name = message.payload
        self.stats.head_requests += 1
        try:
            pkg = self.package(unit_name)
            meta = (pkg.name, pkg.version, pkg.code_size, pkg.digest)
        except ModuleNotFoundInRepo:
            meta = None
        tracer = self.peer.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "repo.head", category="mobility", track=self.peer.peer_id,
                unit=unit_name, requester=requester, served=meta is not None,
            )
        self.peer.send(
            requester,
            "module-head-reply",
            payload=(request_id, unit_name, meta),
            size_bytes=96,
        )
