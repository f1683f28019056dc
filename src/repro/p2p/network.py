"""The simulated consumer network (system S2).

The paper targets "resources such as DSL/Cable" — asymmetric, modest-
bandwidth home links with appreciable latency — connected over an overlay.
This module models exactly that on top of the discrete-event kernel:

* every node has a :class:`NodeProfile` (uplink/downlink bandwidth,
  access latency, CPU speed used by the execution cost model);
* message delivery time = source access latency + destination access
  latency + serialisation time over the slower of the two directions
  (uplink of the sender, downlink of the receiver), plus deterministic
  jitter drawn from a named RNG stream; on serialising links each
  direction carries one message at a time instead;
* nodes can be taken offline (churn); messages to offline nodes are
  counted and dropped — reliability is the job of higher layers;
* an optional *overlay graph* restricts which nodes are neighbours, which
  is what flooding discovery walks;
* fault hooks for the chaos layer (:mod:`repro.faults`): named partitions
  that cut delivery between node groups, probabilistic message loss,
  corruption (detected by checksum at the receiver and discarded),
  duplication and reordering, and per-node CPU speed factors for
  straggler injection.  The fault injector is what sets them: a network
  is built clean.

All behaviour is deterministic for a given simulator seed.

:class:`Transport` — the narrow surface peers, discovery, pipes and the
service protocol actually use of a fabric — is defined here too, beside
the message types it is written in, and :class:`SimNetwork` is its
simulated implementation (the socket one is
:class:`repro.transport.tcp.TcpTransport`).
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Optional

from ..simkernel import Event, Simulator
from .errors import NetworkError

__all__ = [
    "NodeProfile", "Message", "NetStats", "Transport", "SimNetwork",
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


@dataclass(slots=True, init=False)
class Message:
    """One network message.

    ``slots=True``: a 100k-peer swarm allocates one of these per
    heartbeat/gossip hop, so the instance dict is worth eliminating.
    The ``__init__`` is written out, not generated, so the size check
    costs no ``__post_init__`` call; it takes exactly the fields in
    declaration order, which the wire codec's positional decoder needs.
    """

    kind: str
    src: str
    dst: str
    payload: Any
    size_bytes: int

    def __init__(
        self, kind: str, src: str, dst: str, payload: Any = None, size_bytes: int = 256
    ):
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes


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
    contention:
        Whether each node's uplink and downlink queue concurrent sends
        (only a :class:`SimNetwork` built with ``contention=True``).
    """

    sim: Simulator
    stats: NetStats
    compute_faults: dict[str, Any]
    contention: bool
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
    carry one message at a time, on two clocks per node — concurrent
    sends queue, which is how a consumer DSL line actually behaves when a
    controller blasts frames at a farm (``docs/p2p.md``).
    """

    supported_discovery = ("central", "flooding", "rendezvous")

    def __init__(
        self,
        sim: Simulator,
        jitter_fraction: float = 0.0,
        contention: bool = False,
    ):
        if not 0.0 <= jitter_fraction < math.inf:  # NaN fails both
            raise NetworkError(
                f"jitter_fraction must be finite and >= 0, got {jitter_fraction!r}"
            )
        self.sim = sim
        self.jitter_fraction = jitter_fraction
        self.contention = contention
        #: the fraction of messages lost, corrupted, reordered and
        #: duplicated in flight; 0.0 unless a fault window
        #: (:mod:`repro.faults`) is open
        self.loss_fraction = 0.0
        self.corrupt_fraction = 0.0
        self.duplicate_fraction = 0.0
        self.reorder_fraction = 0.0
        self._profiles: dict[str, NodeProfile] = {}
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._online: dict[str, bool] = {}
        self._speed_factors: dict[str, float] = {}
        #: Serialising links only: node id → its uploads not yet past the
        #: uplink (see _upload); how many uploads found their uplink free;
        #: node id → when its downlink is free; instant → the uploads
        #: entering downlinks then.
        self._uploads: dict[str, deque] = {}
        self._free_uplinks = 0
        self._down_free: dict[str, float] = {}
        self._entries: dict[float, list[list]] = {}
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
        # The burst last scheduled (see _arrive): its messages, its
        # instant and its kernel event.  -1.0 is no instant.
        self._burst: list[Message] = []
        self._burst_at = -1.0
        self._burst_event: Optional[Event] = None
        # Bound once: a fresh bound method per burst would be one more
        # object for the GC while the burst is pending.
        self._on_arrival = self._deliver_burst
        self._on_entry = self._enter_downlinks
        # Bound once, like _on_arrival: the join test in _arrive is then
        # one call (Simulator.last_at is itself the queue's method).
        self._last_at = sim.last_at
        # One block-drawn stream per chaos decision, with send() its only
        # consumer: a draw is a generator resumption, not a numpy call.
        self._jitter_u = sim.draws("net-jitter")
        self._loss_u = sim.draws("net-loss")
        self._corrupt_u = sim.draws("net-corrupt")
        self._reorder_u = sim.draws("net-reorder")
        self._dup_u = sim.draws("net-dup")

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
        if not online and node_id in self._uploads:
            self._lose_uploads(node_id)

    def is_online(self, node_id: str) -> bool:
        try:
            return self._online[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

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
            tracer.instant(
                "net.send", category="p2p", track=src,
                kind=message.kind, dst=dst, size=size,
            )
        # Inlined transfer_time (same float expression, profiles already
        # fetched).
        p_src, p_dst = profiles[src], profiles[dst]
        delay = base = (
            p_src.latency_s + p_dst.latency_s + size / min(p_src.up_bps, p_dst.down_bps)
        )
        # Each chaos draw is ``u < fraction``, or ``lo + (hi - lo) * u`` in
        # place of ``uniform(lo, hi)``: numpy's own formula, so bit-equal.
        jitter = self.jitter_fraction
        if jitter > 0:
            delay *= 1.0 + jitter * self._jitter_u()
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
            and self._loss_u() < self.loss_fraction
        ):
            stats.dropped_loss += 1
            if traced:
                self._trace_drop(tracer, message, "loss")
            return delay
        if (
            self.corrupt_fraction > 0.0
            and self._corrupt_u() < self.corrupt_fraction
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
            and self._reorder_u() < self.reorder_fraction
        ):
            # Held back long enough to arrive behind later traffic.
            stats.reordered += 1
            delay *= 1.0 + (1.0 + 2.0 * self._reorder_u())

        duplicated = (
            self.duplicate_fraction > 0.0
            and self._dup_u() < self.duplicate_fraction
        )
        if duplicated:
            stats.duplicated += 1
            if traced:
                tracer.instant(
                    "net.duplicate", category="p2p", track=message.src,
                    kind=message.kind, dst=message.dst, chaos=True,
                )
        # In-flight accounting (read by the telemetry sampler): one copy
        # per scheduled delivery; _deliver_burst() balances each on arrival.
        copies = 2 if duplicated else 1
        stats.in_flight += copies
        stats.in_flight_bytes += size * copies
        if self.contention:
            # The links serialise the wire time; jitter and a reorder hold
            # stretch the latency stage in between.
            hold = delay - base
            self._upload(message, hold)
            if duplicated:
                self._upload(message, hold)
        else:
            now = sim.now
            self._arrive(now + delay, message)
            if duplicated:
                self._arrive(now + delay * 1.5, message)
        return delay

    def _arrive(self, at: float, message: Message) -> None:
        """Deliver ``message`` at ``at``, one kernel event per burst.

        The message joins the last burst scheduled if that burst lands
        on the same instant and is still the last event queued there:
        appending to it is then the same as queueing one more arrival
        right behind it, so tie order is what one event per message
        gives.  Otherwise it starts a new burst; a lone message is a
        burst of one.  The burst lands on ``at`` itself: for
        ``at = now + delay`` that is where ``call_at`` would land it.
        """
        if at == self._burst_at and self._last_at(at) is self._burst_event:
            self._burst.append(message)
            return
        burst = [message]
        self._burst_event = self.sim.call_exact(at, self._on_arrival, burst)
        self._burst, self._burst_at = burst, at

    def _deliver_burst(self, messages: list[Message]) -> None:
        """Arrival of a burst's in-flight copies, in send order: hand each
        to its destination's handler, unless the destination went offline
        (or was partitioned away) while it was in flight.

        The tables are read once per burst.  Each is mutated in place, so
        a handler that takes a node offline or cuts a partition is seen
        by the rest of the burst.
        """
        stats = self.stats
        tracer = self.sim.tracer
        traced = tracer.enabled
        online = self._online
        cuts = self._cuts
        handlers = self._handlers
        rest = iter(messages)
        try:
            for message in rest:
                dst = message.dst
                stats.in_flight -= 1
                stats.in_flight_bytes -= message.size_bytes
                if not online.get(dst, False):
                    stats.dropped_offline += 1
                    if traced:
                        self._trace_drop(tracer, message, "offline")
                    continue
                if cuts and self.partitioned(message.src, dst):
                    stats.dropped_partition += 1
                    if traced:
                        self._trace_drop(tracer, message, "partition")
                    continue
                stats.delivered += 1
                if traced:
                    tracer.instant(
                        "net.recv", category="p2p", track=dst,
                        kind=message.kind, src=message.src, size=message.size_bytes,
                    )
                handlers[dst](message)
        except BaseException:
            # A resumed run delivers the rest first, as the separate
            # arrival events queued ahead of everything else would.
            undelivered = list(rest)
            if undelivered:
                self.sim.call_first(self._on_arrival, undelivered)
            raise

    def _trace_drop(self, tracer, message: Message, reason: str, chaos: bool = False) -> None:
        """Record a dropped/discarded frame, tagged with why it died."""
        attrs = dict(kind=message.kind, src=message.src, reason=reason)
        if chaos:
            attrs["chaos"] = True
        tracer.instant("net.drop", category="p2p", track=message.dst, **attrs)

    # -- serialising links -------------------------------------------------
    #
    # An upload is ``[start, end, message, rank, next_round, next_root]``.
    # ``rank`` is where the process model queued its uplink timer, which
    # is the order same-instant entries take the downlinks in:
    # ``(start, round, root)``.  A round counts events deep into the
    # instant as a FIFO calendar runs them (round 0 was queued before the
    # instant began); ``root`` orders one round's uploads by what began
    # their chain: ``(0, n)`` for the n-th upload that found its uplink
    # free, ``(1, rank)`` for the upload ahead whose timer freed the
    # uplink in round 0.  ``next_round`` and ``next_root`` are the round
    # and root the upload queued behind this one is handed the uplink in.

    def _upload(self, message: Message, hold: float) -> None:
        """Queue ``message`` on its sender's uplink; it enters the
        receiver's downlink both access latencies plus ``hold`` after its
        last byte left.  Instants are summed as a process waiting on each
        stage would sum them, and the entries on one instant share one
        kernel event, whatever else is queued there.

        The send is taken to run in round 0: its process would ask for
        the uplink in round 1 and start in round 2, behind every upload
        handed an uplink freed in round 0."""
        now = self.sim.now
        src = message.src
        uploads = self._uploads.get(src)
        if uploads is None:
            uploads = self._uploads[src] = deque()
        while uploads and uploads[0][1] < now:
            uploads.popleft()  # past its uplink: no crash can lose it now
        if uploads and (uploads[-1][1] > now or uploads[-1][4] > 1):
            # The uplink is not free by round 1: wait for the one ahead.
            ahead = uploads[-1]
            start, rank = ahead[1], (ahead[1], ahead[4], ahead[5])
        else:
            self._free_uplinks += 1
            start, rank = now, (now, 2, (0, self._free_uplinks))
        p_src, p_dst = self._profiles[src], self._profiles[message.dst]
        end = start + message.size_bytes / p_src.up_bps
        if end > start:  # its timer, queued before ``end``, frees the uplink in round 0
            upload = [start, end, message, rank, 1, (1, rank)]
        else:  # its timer runs a round after it starts and frees the uplink
            upload = [start, end, message, rank, rank[1] + 2, rank[2]]
        uploads.append(upload)
        at = end + (p_src.latency_s + p_dst.latency_s + hold)
        entering = self._entries.get(at)
        if entering is None:
            self._entries[at] = [upload]
            self.sim.call_exact(at, self._on_entry)
        else:
            entering.append(upload)

    def _lose_uploads(self, node_id: str) -> None:
        """``node_id`` went offline: it loses every upload whose last byte
        has not left (one leaving now too).  The one on the wire holds
        the uplink to its end; each one queued behind it is handed the
        uplink in turn, a round apart, and frees it in the same round
        without using it."""
        now = self.sim.now
        uploads = self._uploads[node_id]
        while uploads and uploads[0][1] < now:
            uploads.popleft()
        stats = self.stats
        tracer = self.sim.tracer
        ahead = None
        for upload in uploads:
            message = upload[2]
            if message is not None:
                upload[2] = None
                stats.in_flight -= 1
                stats.in_flight_bytes -= message.size_bytes
                stats.dropped_offline += 1
                if tracer.enabled:
                    self._trace_drop(tracer, message, "offline")
                if upload[0] >= now:  # not on the wire yet
                    if ahead is None:
                        start, round_, root = upload[3]
                    else:
                        start, round_, root = ahead[1], ahead[4], ahead[5]
                    upload[0] = upload[1] = start
                    upload[4], upload[5] = round_ + 1, root
            ahead = upload

    def _enter_downlinks(self) -> None:
        """This instant's uploads take their receivers' downlinks in the
        order their latency timers were queued in the process model: by
        upload end, then rank; each arrives when its last byte is in."""
        now = self.sim.now
        uploads = self._entries.pop(now)
        uploads.sort(key=itemgetter(1, 3))
        down_free = self._down_free
        for upload in uploads:
            message = upload[2]
            if message is None:
                continue  # lost with its sender
            upload[2] = None  # past its uplink: a later crash spares it
            dst = message.dst
            start = max(now, down_free.get(dst, now))
            end = down_free[dst] = start + message.size_bytes / self._profiles[dst].down_bps
            self._arrive(end, message)
