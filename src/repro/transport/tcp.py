"""``TcpTransport``: the protocol over real sockets.

An asyncio TCP backend carrying the exact same :class:`Message` traffic
the simulator models, across OS processes on localhost (or a LAN):

* **Framing** — each frame is a 4-byte big-endian length prefix followed
  by the canonical wire encoding of one ``Message``
  (:mod:`repro.transport.wire`).  Frames carry their destination id, so
  one transport instance can host *several* local nodes behind a single
  listening port — the controller process co-hosts the portal (module
  repository + central discovery index) and the controller peer, like
  the paper's Triana portal node.
* **Write-through sends over pooled links** — one pooled outbound
  connection per remote address, created lazily on first send and
  reused for every later frame to that peer.  ``send()`` hands the
  frame straight to a live connection (the socket is tried at once;
  asyncio buffers only what the kernel refuses), so frames leave when
  they are sent, not at the sender's next idle moment.  Only while the
  link is connecting or backing off do frames wait, in the link's
  pending FIFO, and that FIFO is flushed in order the moment the
  connection is up.
* **Delivery contract** — at most once; per-link FIFO among delivered
  frames.  A frame is either handed to a connection that was live at
  ``send()`` time, or queued for the link and retried: a broken or
  not-yet-listening peer is re-dialled with exponential backoff
  (``backoff_base · 2^k`` capped at ``backoff_max``) and after
  ``max_retries`` failures the oldest pending frame is dropped and
  counted in ``stats.dropped_offline``, mirroring the consumer-link
  semantics of the simulated fabric.  A frame already handed to a
  connection that then dies is lost without notice ("links fail
  without notice") — retries belong to the layers above.
* **Inbound frames without a stream layer** — accepted connections are
  an :class:`asyncio.Protocol` that cuts length-prefixed frames out of
  each chunk the socket delivers; only a frame that spans chunks is
  buffered, in one ``bytearray`` sized from its prefix.
* **Kernel integration** — the transport owns a private asyncio loop
  that only spins inside :meth:`pump`, which the
  :class:`~repro.transport.runtime.RealtimeSimulator` calls whenever the
  event queue has nothing due.  A blocking pump arms one timer and runs
  the loop until the timer or an arriving frame *stops* it; no
  coroutine or task is created per call.  Inbound frames are decoded
  and handed to the destination node's handler inside the pump; any
  events the handler succeeds are drained by the kernel immediately
  after.

The transport is intentionally *mechanism only*: discovery, liveness
suspicion, retries, integrity voting all stay in the layers above,
unchanged from the simulation.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..p2p.errors import NetworkError
from ..p2p.network import LAN_PROFILE, Message, NetStats, NodeProfile, Transport
from .wire import WireError, decode_message, encode_message

__all__ = ["TcpTransport"]

_LEN = struct.Struct(">I")
#: Refuse frames larger than this (corrupt length prefix guard).
MAX_FRAME_BYTES = 1 << 30
#: Loop turns ``close()`` runs after cancelling and aborting everything:
#: a cancelled connect unwinds in one turn, the transport it may have
#: built is torn down in the next, its callbacks run in the third.
_CLOSE_TURNS = 4


class _Link:
    """One pooled outbound connection and the frames waiting for it.

    ``pending`` holds frames only while nothing can take them: there is
    no live connection (then a dial is in flight in ``connecting``, or
    a backoff timer in ``retry``), or the connection's write buffer is
    over its high-water mark (``writable`` is False until it drains).
    """

    __slots__ = (
        "address", "transport", "writable", "pending", "attempts",
        "connecting", "retry",
    )

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.transport: Optional[asyncio.Transport] = None
        self.writable = False
        self.pending: Deque[bytes] = deque()
        self.attempts = 0
        self.connecting: Optional[asyncio.Task] = None
        self.retry: Optional[asyncio.TimerHandle] = None


class _LinkProtocol(asyncio.Protocol):
    """The outbound (write-only) end of one connection of a link."""

    __slots__ = ("owner", "link", "transport")

    def __init__(self, owner: "TcpTransport", link: _Link) -> None:
        self.owner = owner
        self.link = link
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        owner, link = self.owner, self.link
        if owner._closed:
            transport.abort()
            return
        owner._connections.add(transport)
        link.transport = transport
        link.attempts = 0
        self.resume_writing()

    def pause_writing(self) -> None:
        # Over the high-water mark: later frames wait in ``pending``
        # instead of growing asyncio's one flat write buffer.
        if self.link.transport is self.transport:
            self.link.writable = False

    def resume_writing(self) -> None:
        link = self.link
        if link.transport is self.transport:
            link.writable = True
            self.owner._flush(link)

    def connection_lost(self, exc) -> None:
        owner, link = self.owner, self.link
        owner._connections.discard(self.transport)
        if link.transport is self.transport:
            link.transport = None
            link.writable = False
            if link.pending:
                owner._connect(link)  # they were never handed over


class _FrameReader(asyncio.Protocol):
    """An accepted connection: length-prefixed frames cut out of chunks.

    Whole frames inside a chunk are handed on as slices of it; ``head``
    keeps a length prefix split across chunks and ``body`` gathers the
    one frame that spans chunks, ``filled`` bytes of it so far.
    """

    __slots__ = ("owner", "transport", "head", "body", "filled")

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.transport: Optional[asyncio.Transport] = None
        self.head = b""
        self.body: Optional[bytearray] = None
        self.filled = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.owner._closed:
            transport.abort()
            return
        self.owner._connections.add(transport)

    def connection_lost(self, exc) -> None:
        self.owner._connections.discard(self.transport)
        self.body = None

    def data_received(self, data: bytes) -> None:
        on_frame = self.owner._on_frame
        pos, end = 0, len(data)
        while pos < end:
            body = self.body
            if body is not None:
                take = min(len(body) - self.filled, end - pos)
                filled = self.filled + take
                body[self.filled:filled] = memoryview(data)[pos:pos + take]
                pos += take
                if filled < len(body):
                    self.filled = filled
                    return
                self.body = None
                on_frame(body)
                continue
            if self.head or end - pos < 4:
                head = self.head + data[pos:pos + 4 - len(self.head)]
                pos += len(head) - len(self.head)
                if len(head) < 4:
                    self.head = head
                    return
                self.head = b""
                (length,) = _LEN.unpack(head)
            else:
                (length,) = _LEN.unpack_from(data, pos)
                pos += 4
            if length > MAX_FRAME_BYTES:
                # Nothing is allocated for a bogus length; this
                # connection is beyond resync, the listener is not.
                self.owner.stats.corrupted += 1
                self.transport.abort()
                return
            if end - pos >= length:
                on_frame(data[pos:pos + length])
                pos += length
            else:
                self.body = bytearray(length)
                self.filled = 0


class TcpTransport(Transport):
    """Asyncio TCP backend: length-prefixed canonical frames, pooled links."""

    def __init__(
        self,
        sim,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: Optional[Dict[str, Tuple[str, int]]] = None,
        default_profile: NodeProfile = LAN_PROFILE,
        connect_timeout: float = 5.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_retries: int = 10,
        listen: bool = True,
    ):
        self.sim = sim
        self.host = host
        self.default_profile = default_profile
        self.connect_timeout = connect_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_retries = max_retries
        self.stats = NetStats()
        self.compute_faults: Dict[str, Any] = {}
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._profiles: Dict[str, NodeProfile] = {}
        self._online: Dict[str, bool] = {}
        self._addresses: Dict[str, Tuple[str, int]] = dict(peers or {})
        self._links: Dict[Tuple[str, int], _Link] = {}
        #: every live connection, inbound and outbound, so close() can
        #: abort them all
        self._connections: Set[asyncio.Transport] = set()
        self._closed = False
        #: a frame arrived since the last blocking pump returned
        self._activity = False
        self._loop = asyncio.new_event_loop()
        self._server = None
        self.port = port
        if listen:
            try:
                self._server = self._loop.run_until_complete(
                    self._loop.create_server(lambda: _FrameReader(self), host, port)
                )
            except OSError:
                # Bind failed: nothing owns the loop (and its self-pipe
                # sockets) yet, so release it before the error escapes.
                self._loop.close()
                raise
            self.port = self._server.sockets[0].getsockname()[1]
        sim.add_pump(self.pump)

    # -- membership ---------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        handler: Callable[[Message], None],
        profile: Optional[NodeProfile] = None,
    ) -> None:
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler
        self._profiles[node_id] = profile or self.default_profile
        self._online[node_id] = True
        if self._server is not None:
            # Local nodes are reachable at our own listening address, so
            # even same-process traffic crosses the real socket path.
            self._addresses.setdefault(node_id, (self.host, self.port))

    def nodes(self) -> List[str]:
        return sorted(self._handlers)

    def register_peer(self, peer_id: str, host: str, port: int) -> None:
        """Teach the transport where a remote peer listens."""
        self._addresses[peer_id] = (host, port)

    # -- liveness & profiles ------------------------------------------------
    def is_online(self, node_id: str) -> bool:
        # Remote liveness is unknowable without probing; the failure
        # detector above owns suspicion, so the transport stays
        # optimistic for peers it does not host.
        return self._online.get(node_id, True)

    def set_online(self, node_id: str, online: bool) -> None:
        self._online[node_id] = online

    def profile(self, node_id: str) -> NodeProfile:
        return self._profiles.get(node_id, self.default_profile)

    # -- traffic ------------------------------------------------------------
    def send(self, message: Message) -> float:
        """Send ``message``; returns the modelled delay.

        Non-blocking and write-through: the frame is encoded now
        (serialisation errors surface at the send site, like the
        simulator's payload checks) and handed to the link's connection
        if one is live — it is on its way before ``send`` returns,
        whether or not this side pumps.  Otherwise it joins the link's
        pending FIFO, which is flushed in order when the dial succeeds
        and loses its oldest frame to ``stats.dropped_offline`` each time
        ``max_retries`` dials in a row have failed.  Delivery is at most
        once: a frame handed to a connection that later dies is gone.
        """
        src, dst, size = message.src, message.dst, message.size_bytes
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size
        by_kind = stats.by_kind
        by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("p2p.messages_sent").inc()
            tracer.metrics.histogram("p2p.message_bytes").observe(size)
            tracer.instant(
                "net.send", category="p2p", track=src,
                kind=message.kind, dst=dst, size=size,
            )
        delay = self.transfer_time(src, dst, size)
        if not self._online.get(src, True):
            stats.dropped_offline += 1
            return delay
        frame = encode_message(message)
        address = self._addresses.get(dst)
        if address is None:
            if dst in self._handlers:
                # Socketless instance (listen=False): loop back directly.
                self.sim.call_at(self.sim.now, self._dispatch, message)
                return delay
            stats.dropped_offline += 1
            return delay
        link = self._links.get(address)
        if link is None:
            link = self._links[address] = _Link(address)
        link.pending.append(frame)
        transport = link.transport
        if transport is None or transport.is_closing():
            self._connect(link)
        elif link.writable:
            self._flush(link)
        return delay

    def _flush(self, link: _Link) -> None:
        """Hand pending frames to the live connection, oldest first, until
        its write buffer is over the high-water mark."""
        transport, pending = link.transport, link.pending
        while pending and link.writable:
            frame = pending.popleft()
            transport.writelines((_LEN.pack(len(frame)), frame))

    def _connect(self, link: _Link) -> None:
        """Dial ``link``'s address unless a dial or a backoff is under way;
        :meth:`_connect_done` hears the outcome."""
        if self._closed or link.connecting is not None or link.retry is not None:
            return
        loop = self._loop
        host, port = link.address
        task = link.connecting = loop.create_task(
            loop.create_connection(lambda: _LinkProtocol(self, link), host, port)
        )
        timeout = loop.call_later(self.connect_timeout, task.cancel)
        task.add_done_callback(lambda task: self._connect_done(link, timeout, task))

    def _connect_done(self, link: _Link, timeout, task: asyncio.Task) -> None:
        timeout.cancel()
        link.connecting = None
        failed = task.cancelled() or task.exception() is not None
        pending = link.pending
        if self._closed or not pending or link.transport is not None:
            return  # nothing waits for a dial: connection_made took the backlog
        if not failed:
            self._connect(link)  # adopted, flushed — and already lost again
            return
        link.attempts += 1
        if link.attempts > self.max_retries:
            self.stats.dropped_offline += 1
            link.attempts = 0
            pending.popleft()
            if pending:
                self._connect(link)  # the next frame starts its own count
        else:
            link.retry = self._loop.call_later(
                min(self.backoff_base * (2 ** (link.attempts - 1)), self.backoff_max),
                self._redial, link,
            )

    def _redial(self, link: _Link) -> None:
        link.retry = None
        self._connect(link)

    # -- inbound ------------------------------------------------------------
    def _on_frame(self, frame: bytes) -> None:
        try:
            message = decode_message(frame)
        except WireError:
            self.stats.corrupted += 1
            return
        self._dispatch(message)
        self._activity = True
        self._loop.stop()  # ends a blocking pump after this loop turn

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None or not self._online.get(message.dst, True):
            self.stats.dropped_offline += 1
            return
        self.stats.delivered += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "net.recv", category="p2p", track=message.dst,
                kind=message.kind, src=message.src, size=message.size_bytes,
            )
        try:
            handler(message)
        except Exception:  # noqa: BLE001 - a bad handler must not kill I/O
            self.stats.corrupted += 1

    # -- kernel integration -------------------------------------------------
    def pump(self, max_wait: float) -> None:
        """Spin the asyncio loop, blocking up to ``max_wait`` s for I/O.

        ``max_wait <= 0`` is exactly one loop turn: poll the sockets
        once, run what is ready.  A blocking pump runs turns until
        ``max_wait`` has passed or a frame has been dispatched (the
        frame stops the loop; the rest of that turn's ready I/O still
        runs).  If a frame arrived since the last blocking pump — during
        a non-blocking one, say — it does not block either.
        """
        if self._closed:
            return
        loop = self._loop
        if max_wait <= 0:
            loop.stop()
            loop.run_forever()
            return
        if self._activity:
            loop.stop()
            timer = None
        else:
            timer = loop.call_later(max_wait, loop.stop)
        try:
            loop.run_forever()
        finally:
            self._activity = False
            if timer is not None:
                timer.cancel()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release every socket and the loop; bounded by construction.

        Nothing here waits on a future: dials and timers are cancelled,
        connections aborted (bytes the kernel had not yet taken are
        dropped, like frames still pending), and the loop is given a
        fixed number of turns to unwind them.  No link code outlives
        this call — whatever runs in those turns sees ``_closed``.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if self._server is not None:
            self._server.close()
        for link in self._links.values():
            link.pending.clear()
            if link.connecting is not None:
                link.connecting.cancel()
            if link.retry is not None:
                link.retry.cancel()
        for transport in list(self._connections):
            transport.abort()
        for _ in range(_CLOSE_TURNS):
            loop.stop()
            loop.run_forever()
        loop.close()
