"""The simulated consumer network (system S2).

The paper targets "resources such as DSL/Cable" — asymmetric, modest-
bandwidth home links with appreciable latency — connected over an overlay.
This module models exactly that on top of the discrete-event kernel:

* every node has a :class:`NodeProfile` (uplink/downlink bandwidth,
  access latency, CPU speed used by the execution cost model);
* message delivery time = source access latency + destination access
  latency + serialisation time over the slower of the two directions
  (uplink of the sender, downlink of the receiver), plus deterministic
  jitter drawn from a named RNG stream;
* nodes can be taken offline (churn); messages to offline nodes are
  counted and dropped — reliability is the job of higher layers;
* an optional *overlay graph* restricts which nodes are neighbours, which
  is what flooding discovery walks;
* fault hooks for the chaos layer (:mod:`repro.faults`): named partitions
  that cut delivery between node groups, probabilistic message corruption
  (detected by checksum at the receiver and discarded), duplication and
  reordering, and per-node CPU speed factors for straggler injection.

All behaviour is deterministic for a given simulator seed.

:class:`Transport` — the narrow surface peers, discovery, pipes and the
service protocol actually use of a fabric — is defined here too, beside
the message types it is written in, and :class:`SimNetwork` is its
simulated implementation (the socket one is
:class:`repro.transport.tcp.TcpTransport`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..simkernel import Resource, Simulator
from .errors import NetworkError

__all__ = [
    "NodeProfile", "Message", "NetStats", "NetChaos", "Transport", "SimNetwork",
    "DSL_PROFILE", "LAN_PROFILE", "chunk_sizes",
]


def chunk_sizes(total_bytes: int, chunk_bytes: int) -> list[int]:
    """Split a transfer into fixed-size chunks (last one ragged).

    The framing used by chunked module transfers: under contention each
    chunk claims the uplink separately, so several transfers interleave
    chunk-by-chunk instead of serialising whole payloads.
    """
    if chunk_bytes <= 0:
        raise NetworkError("chunk_bytes must be positive")
    if total_bytes <= 0:
        return [0]
    full, rest = divmod(total_bytes, chunk_bytes)
    return [chunk_bytes] * full + ([rest] if rest else [])


@dataclass(frozen=True, slots=True)
class NodeProfile:
    """Link and host characteristics of one network node.

    Defaults approximate a 2003-era DSL consumer line and desktop PC.
    """

    up_bps: float = 256e3 / 8  # 256 kbit/s uplink in bytes/s
    down_bps: float = 1e6 / 8  # 1 Mbit/s downlink in bytes/s
    latency_s: float = 0.020  # one-way access latency
    cpu_flops: float = 2.0e9  # ~2 GHz PC (the paper's reference machine)
    ram_bytes: int = 512 * 1024 * 1024

    def __post_init__(self):
        if self.up_bps <= 0 or self.down_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.cpu_flops <= 0:
            raise ValueError("cpu_flops must be positive")


#: Convenience profiles.
DSL_PROFILE = NodeProfile()
LAN_PROFILE = NodeProfile(
    up_bps=100e6 / 8, down_bps=100e6 / 8, latency_s=0.0005, cpu_flops=2.0e9
)


@dataclass(frozen=True)
class NetChaos:
    """How a :class:`SimNetwork` misbehaves — its keyword arguments, as a value.

    Simulation apparatus: a socket fabric has real jitter and loss and
    takes none of these.  ``SimNetwork(sim, **vars(chaos))`` applies one.
    """

    jitter_fraction: float = 0.0
    contention: bool = False
    loss_fraction: float = 0.0
    corrupt_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    reorder_fraction: float = 0.0

    def __post_init__(self):
        for name in (
            "loss_fraction", "corrupt_fraction", "duplicate_fraction", "reorder_fraction",
        ):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise NetworkError(f"{name} must be in [0, 1)")


@dataclass(slots=True)
class Message:
    """One network message.

    ``slots=True``: a 100k-peer swarm allocates one of these per
    heartbeat/gossip hop, so the instance dict is worth eliminating.
    """

    kind: str
    src: str
    dst: str
    payload: Any = None
    size_bytes: int = 256

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")


@dataclass(slots=True)
class NetStats:
    """Aggregate traffic accounting for one network."""

    sent: int = 0
    delivered: int = 0
    dropped_offline: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    corrupted: int = 0
    duplicated: int = 0
    reordered: int = 0
    bytes_sent: int = 0
    #: frames scheduled for delivery but not yet handed to a receiver
    #: (includes frames that will be dropped in flight)
    in_flight: int = 0
    in_flight_bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)


class Transport(abc.ABC):
    """What a peer needs from its network: the fabric interface.

    Everything above — :class:`~repro.p2p.peer.Peer`, discovery, pipes,
    the controller/worker protocol, the module cache and repository,
    :class:`~repro.grid.ConsumerGrid` — talks to the fabric through this
    surface only, which is what lets the same protocol run on simulated
    time and on real sockets.  Chaos and overlay construction
    (partitions, loss, speed factors, ``random_overlay``) are *not*
    here: they are simulation apparatus on :class:`SimNetwork`.

    Attributes
    ----------
    sim:
        The event kernel the fabric schedules against — a
        :class:`~repro.simkernel.Simulator`, or the wall-clock
        :class:`~repro.transport.runtime.RealtimeSimulator`.  Peers read
        their clock and timeout primitives from here.
    stats:
        A :class:`NetStats` traffic counter.
    compute_faults:
        Mutable mapping consulted by workers before executing units —
        the sabotage seam used by the integrity experiments.  Empty on
        healthy fabrics.
    """

    sim: Simulator
    stats: NetStats
    compute_faults: dict[str, Any]
    #: Discovery backends the fabric can carry.  Flooding and rendezvous
    #: walk a modelled overlay, which only the simulated fabric has;
    #: socket fabrics get the central index (the paper's portal).
    supported_discovery: tuple[str, ...] = ("central",)

    # -- membership ---------------------------------------------------------
    @abc.abstractmethod
    def add_node(
        self,
        node_id: str,
        handler: Callable[[Message], None],
        profile: Optional[NodeProfile] = None,
    ) -> None:
        """Register a local node and its inbound-message handler."""

    @abc.abstractmethod
    def nodes(self) -> list[str]:
        """Ids of locally hosted nodes."""

    # -- liveness & profiles ------------------------------------------------
    @abc.abstractmethod
    def is_online(self, node_id: str) -> bool:
        """Whether ``node_id`` is believed reachable."""

    @abc.abstractmethod
    def set_online(self, node_id: str, online: bool) -> None:
        """Flip a local node's liveness (churn modelling / drain)."""

    @abc.abstractmethod
    def profile(self, node_id: str) -> NodeProfile:
        """Link/CPU profile for ``node_id`` (a default for remote peers)."""

    def speed_factor(self, node_id: str) -> float:
        """Multiplier on a node's compute speed; 1.0 unless modelled."""
        return 1.0

    # -- traffic ------------------------------------------------------------
    @abc.abstractmethod
    def send(self, message: Message) -> float:
        """Dispatch ``message``; returns the modelled one-way delay."""

    def transfer_time(self, src: str, dst: str, size_bytes: int) -> float:
        """Modelled one-way delivery time for ``size_bytes``."""
        p_src, p_dst = self.profile(src), self.profile(dst)
        wire = size_bytes / min(p_src.up_bps, p_dst.down_bps)
        return p_src.latency_s + p_dst.latency_s + wire

    def neighbours(self, node_id: str) -> list[str]:
        """Overlay neighbours, for flooding discovery; empty if no overlay."""
        return []

    # -- observability ------------------------------------------------------
    def telemetry_sample(self) -> dict[str, int]:
        """Traffic counters for the live telemetry sampler."""
        stats = self.stats
        return {
            "sent": stats.sent,
            "delivered": stats.delivered,
            "bytes_sent": stats.bytes_sent,
            "in_flight": stats.in_flight,
            "in_flight_bytes": stats.in_flight_bytes,
            "dropped": (
                stats.dropped_offline
                + stats.dropped_loss
                + stats.dropped_partition
            ),
            "offline": sum(1 for n in self.nodes() if not self.is_online(n)),
        }

    def trace_liveness_snapshot(self) -> None:
        """Record a ``peer.offline`` instant for every offline local node.

        :meth:`set_online` only traces *transitions*, so when a tracer
        is installed late (the ``trace_out`` opt-in in
        :meth:`ConsumerGrid.run <repro.grid.ConsumerGrid.run>`), peers
        already offline would otherwise look idle — not unavailable —
        to the analyzer's utilization accounting.  Call this right
        after installing a tracer to seed initial liveness.
        """
        tracer = self.sim.tracer
        if not tracer.enabled:
            return
        for node_id in sorted(self.nodes()):
            if not self.is_online(node_id):
                tracer.instant("peer.offline", category="p2p", track=node_id)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release sockets/threads; idempotent.  No-op for the simulator."""


class SimNetwork(Transport):
    """Deterministic simulated message fabric (the default; bit-identical per seed).

    With ``contention=False`` (default) transfers are independent: each
    message takes its own :meth:`transfer_time` regardless of concurrent
    traffic.  With ``contention=True`` each node's uplink and downlink
    are serialised resources — concurrent sends queue, which is how a
    consumer DSL line actually behaves when a controller blasts frames
    at a farm.
    """

    supported_discovery = ("central", "flooding", "rendezvous")

    def __init__(
        self,
        sim: Simulator,
        jitter_fraction: float = 0.1,
        contention: bool = False,
        loss_fraction: float = 0.0,
        corrupt_fraction: float = 0.0,
        duplicate_fraction: float = 0.0,
        reorder_fraction: float = 0.0,
    ):
        # The ranges are the value's to check; direct construction gets them too.
        NetChaos(
            jitter_fraction, contention, loss_fraction, corrupt_fraction,
            duplicate_fraction, reorder_fraction,
        )
        self.sim = sim
        self.jitter_fraction = jitter_fraction
        self.contention = contention
        self.loss_fraction = loss_fraction
        self.corrupt_fraction = corrupt_fraction
        self.duplicate_fraction = duplicate_fraction
        self.reorder_fraction = reorder_fraction
        self._profiles: dict[str, NodeProfile] = {}
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._online: dict[str, bool] = {}
        self._speed_factors: dict[str, float] = {}
        self._uplinks: dict[str, "object"] = {}
        self._downlinks: dict[str, "object"] = {}
        self._cuts: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
        self._next_cut_id = 1
        #: node id → overlay neighbours (undirected: both ends list the
        #: other).  A node gets its set from its first edge: only flooding
        #: walks an overlay, and an empty set per peer is garbage to scan.
        self.overlay: dict[str, set[str]] = {}
        self.stats = NetStats()
        #: per-peer compute-fault models, keyed by peer id.  The faults
        #: layer installs entries, the service layer polls them — this
        #: neutral dict is the only coupling point between the two.
        self.compute_faults: dict[str, Any] = {}
        # Bound once: send() schedules this per message, and a fresh
        # bound-method object each time is one more thing for the GC.
        self._on_arrival = self._deliver

    # -- membership ---------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        handler: Callable[[Message], None],
        profile: Optional[NodeProfile] = None,
    ) -> None:
        """Register a node with its message handler."""
        if node_id in self._profiles:
            raise NetworkError(f"node {node_id!r} already registered")
        self._profiles[node_id] = profile or DSL_PROFILE
        self._handlers[node_id] = handler
        self._online[node_id] = True

    def remove_node(self, node_id: str) -> None:
        self._require(node_id)
        del self._profiles[node_id]
        del self._handlers[node_id]
        del self._online[node_id]
        for nb in self.overlay.pop(node_id, set()) - {node_id}:
            self.overlay[nb].discard(node_id)

    def nodes(self) -> list[str]:
        return list(self._profiles)

    def profile(self, node_id: str) -> NodeProfile:
        self._require(node_id)
        return self._profiles[node_id]

    def _require(self, node_id: str) -> None:
        if node_id not in self._profiles:
            raise NetworkError(f"unknown node {node_id!r}")

    # -- liveness -------------------------------------------------------------
    def set_online(self, node_id: str, online: bool) -> None:
        self._require(node_id)
        if self._online[node_id] == online:
            return
        self._online[node_id] = online
        tracer = self.sim.tracer
        if tracer.enabled:
            # Liveness transitions feed the analyzer's per-peer
            # unavailable-time accounting (repro.observe.analyze).
            tracer.instant(
                "peer.online" if online else "peer.offline",
                category="p2p", track=node_id,
            )

    def is_online(self, node_id: str) -> bool:
        self._require(node_id)
        return self._online[node_id]

    # -- straggler injection ---------------------------------------------------
    def set_speed_factor(self, node_id: str, factor: float) -> None:
        """Scale a node's effective CPU speed (straggler slowdown).

        ``factor`` multiplies the profile's ``cpu_flops`` wherever a
        consumer asks via :meth:`speed_factor`; 1.0 restores full speed.
        """
        self._require(node_id)
        if factor <= 0:
            raise NetworkError("speed factor must be positive")
        if factor == 1.0:
            self._speed_factors.pop(node_id, None)
        else:
            self._speed_factors[node_id] = factor

    def speed_factor(self, node_id: str) -> float:
        return self._speed_factors.get(node_id, 1.0)

    # -- partitions -----------------------------------------------------------
    def partition(self, group_a, group_b) -> int:
        """Cut delivery between two node groups; returns a cut id.

        Messages whose endpoints straddle the cut are counted as
        ``dropped_partition`` and never delivered until :meth:`heal`.
        """
        a = frozenset(group_a)
        b = frozenset(group_b)
        for node in a | b:
            self._require(node)
        if a & b:
            raise NetworkError(f"partition groups overlap: {sorted(a & b)}")
        if not a or not b:
            raise NetworkError("partition groups must be non-empty")
        cut_id = self._next_cut_id
        self._next_cut_id += 1
        self._cuts[cut_id] = (a, b)
        return cut_id

    def heal(self, cut_id: Optional[int] = None) -> None:
        """Remove one partition cut (or all of them when ``cut_id`` is None)."""
        if cut_id is None:
            self._cuts.clear()
        elif cut_id in self._cuts:
            del self._cuts[cut_id]

    def partitioned(self, a: str, b: str) -> bool:
        """True when any active cut separates nodes ``a`` and ``b``."""
        for group_a, group_b in self._cuts.values():
            if (a in group_a and b in group_b) or (a in group_b and b in group_a):
                return True
        return False

    # -- overlay -------------------------------------------------------------
    def add_edge(self, a: str, b: str) -> None:
        """Declare two nodes overlay neighbours (for flooding)."""
        self._require(a)
        self._require(b)
        overlay = self.overlay
        overlay.setdefault(a, set()).add(b)
        overlay.setdefault(b, set()).add(a)

    def neighbours(self, node_id: str) -> list[str]:
        self._require(node_id)
        return sorted(self.overlay.get(node_id, ()))

    def random_overlay(self, degree: int = 4, stream: str = "overlay") -> None:
        """Wire a random connected overlay of roughly the given degree."""
        ids = sorted(self._profiles)
        if len(ids) < 2:
            return
        rng = self.sim.rng(stream)
        # Ring ensures connectivity; extra random edges approximate degree.
        for i, node in enumerate(ids):
            self.add_edge(node, ids[(i + 1) % len(ids)])
        extra = max(0, (degree - 2)) * len(ids) // 2
        for _ in range(extra):
            a, b = rng.choice(len(ids), size=2, replace=False)
            self.add_edge(ids[a], ids[b])

    # -- transfer model -----------------------------------------------------------
    def send(self, message: Message) -> float:
        """Schedule delivery of ``message``; returns the modelled delay.

        Messages to offline (or sender-offline) nodes are dropped silently
        apart from stats — consumer links fail without notice.
        """
        # Hot path: one call per simulated message.  Endpoint validation
        # is inlined and locals are hoisted so a send costs a handful of
        # dict lookups instead of repeated method dispatch.
        src, dst, size = message.src, message.dst, message.size_bytes
        profiles = self._profiles
        if src not in profiles:
            raise NetworkError(f"unknown node {src!r}")
        if dst not in profiles:
            raise NetworkError(f"unknown node {dst!r}")
        sim = self.sim
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size
        by_kind = stats.by_kind
        by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
        tracer = sim.tracer
        traced = tracer.enabled
        if traced:
            tracer.metrics.counter("p2p.messages_sent").inc()
            tracer.metrics.histogram("p2p.message_bytes").observe(size)
            tracer.instant(
                "net.send", category="p2p", track=src,
                kind=message.kind, dst=dst, size=size,
            )
        # Inlined transfer_time (same float expression, profiles already
        # fetched).
        p_src, p_dst = profiles[src], profiles[dst]
        delay = p_src.latency_s + p_dst.latency_s + size / min(p_src.up_bps, p_dst.down_bps)
        if self.jitter_fraction > 0:
            jitter = sim.rng("net-jitter").uniform(0, self.jitter_fraction)
            delay *= 1.0 + jitter
        online = self._online
        if not online[src] or not online[dst]:
            stats.dropped_offline += 1
            if traced:
                self._trace_drop(tracer, message, "offline")
            return delay
        if self._cuts and self.partitioned(src, dst):
            stats.dropped_partition += 1
            if traced:
                self._trace_drop(tracer, message, "partition")
            return delay
        if (
            self.loss_fraction > 0.0
            and sim.rng("net-loss").random() < self.loss_fraction
        ):
            stats.dropped_loss += 1
            if traced:
                self._trace_drop(tracer, message, "loss")
            return delay
        if (
            self.corrupt_fraction > 0.0
            and sim.rng("net-corrupt").random() < self.corrupt_fraction
        ):
            # Garbled in flight; the receiver's checksum catches it and the
            # frame is discarded — recovery is the job of higher layers.
            stats.corrupted += 1
            if traced:
                # The chaos-corruption tag: checksum failure at the receiver.
                self._trace_drop(tracer, message, "corrupt", chaos=True)
            return delay
        if (
            self.reorder_fraction > 0.0
            and sim.rng("net-reorder").random() < self.reorder_fraction
        ):
            # Held back long enough to arrive behind later traffic.
            stats.reordered += 1
            delay *= 1.0 + float(sim.rng("net-reorder").uniform(1.0, 3.0))

        duplicated = (
            self.duplicate_fraction > 0.0
            and sim.rng("net-dup").random() < self.duplicate_fraction
        )
        if duplicated:
            stats.duplicated += 1
            if traced:
                tracer.metrics.counter("p2p.duplicated").inc()
                tracer.instant(
                    "net.duplicate", category="p2p", track=message.src,
                    kind=message.kind, dst=message.dst, chaos=True,
                )
        # In-flight accounting (read by the telemetry sampler): one copy
        # per scheduled delivery; _deliver() balances each on arrival.
        copies = 2 if duplicated else 1
        stats.in_flight += copies
        stats.in_flight_bytes += size * copies
        if self.contention:
            sim.process(self._contended_delivery(message), name="net-transfer")
            if duplicated:
                sim.process(
                    self._contended_delivery(message), name="net-transfer-dup"
                )
        else:
            sim.call_at(sim.now + delay, self._on_arrival, message)
            if duplicated:
                sim.call_at(sim.now + delay * 1.5, self._on_arrival, message)
        return delay

    def _deliver(self, message: Message) -> None:
        """Arrival of one in-flight copy of ``message``: hand it to the
        destination's handler, unless the destination went offline (or
        was partitioned away) while it was in flight."""
        stats = self.stats
        tracer = self.sim.tracer
        dst = message.dst
        stats.in_flight -= 1
        stats.in_flight_bytes -= message.size_bytes
        if not self._online.get(dst, False):
            stats.dropped_offline += 1
            if tracer.enabled:
                self._trace_drop(tracer, message, "offline")
            return
        if self._cuts and self.partitioned(message.src, dst):
            stats.dropped_partition += 1
            if tracer.enabled:
                self._trace_drop(tracer, message, "partition")
            return
        stats.delivered += 1
        if tracer.enabled:
            tracer.metrics.counter("p2p.messages_delivered").inc()
            tracer.instant(
                "net.recv", category="p2p", track=dst,
                kind=message.kind, src=message.src, size=message.size_bytes,
            )
        self._handlers[dst](message)

    def _trace_drop(self, tracer, message: Message, reason: str, chaos: bool = False) -> None:
        """Record a dropped/discarded frame, tagged with why it died."""
        tracer.metrics.counter(f"p2p.dropped_{reason}").inc()
        attrs = dict(kind=message.kind, src=message.src, reason=reason)
        if chaos:
            attrs["chaos"] = True
        tracer.instant("net.drop", category="p2p", track=message.dst, **attrs)

    def _link(self, table: dict, node_id: str) -> Resource:
        if node_id not in table:
            table[node_id] = Resource(self.sim, capacity=1)
        return table[node_id]

    def _contended_delivery(self, message: Message):
        """Serialise the wire time on the sender's uplink, then the
        receiver's downlink, with access latency in between."""
        p_src = self.profile(message.src)
        p_dst = self.profile(message.dst)
        up = self._link(self._uplinks, message.src)
        req = up.request()
        yield req
        try:
            yield self.sim.timeout(message.size_bytes / p_src.up_bps)
        finally:
            up.release(req)
        yield self.sim.timeout(p_src.latency_s + p_dst.latency_s)
        down = self._link(self._downlinks, message.dst)
        req = down.request()
        yield req
        try:
            yield self.sim.timeout(message.size_bytes / p_dst.down_bps)
        finally:
            down.release(req)
        self._deliver(message)

    def broadcast(self, src: str, kind: str, payload: Any, size_bytes: int = 256) -> int:
        """Send to every overlay neighbour; returns number of sends."""
        count = 0
        for nb in self.neighbours(src):
            self.send(Message(kind=kind, src=src, dst=nb, payload=payload, size_bytes=size_bytes))
            count += 1
        return count
