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
* **Connection pooling** — one pooled outbound connection per remote
  address, created lazily on first send and reused for every subsequent
  frame to that peer; an ``asyncio.Queue`` per link keeps send() itself
  non-blocking.
* **Reconnect with backoff** — a broken or not-yet-listening peer is
  retried with exponential backoff (``backoff_base · 2^k`` capped at
  ``backoff_max``); after ``max_retries`` failures the frame is dropped
  and counted like an offline drop, mirroring the consumer-link
  semantics of the simulated fabric ("links fail without notice").
* **Kernel integration** — the transport owns a private asyncio loop
  that only spins inside :meth:`pump`, which the
  :class:`~repro.transport.runtime.RealtimeSimulator` calls whenever the
  event queue has nothing due.  Inbound frames are decoded and handed to
  the destination node's handler inside the pump; any events the handler
  succeeds are drained by the kernel immediately after.

The transport is intentionally *mechanism only*: discovery, liveness
suspicion, retries, integrity voting all stay in the layers above,
unchanged from the simulation.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..p2p.errors import NetworkError
from ..p2p.network import LAN_PROFILE, Message, NetStats, NodeProfile, Transport
from .wire import WireError, decode_message, encode_message

__all__ = ["TcpTransport"]

_LEN = struct.Struct(">I")
#: Refuse frames larger than this (corrupt length prefix guard).
MAX_FRAME_BYTES = 1 << 30


class _Link:
    """One pooled outbound connection: frame queue + writer task."""

    __slots__ = ("queue", "task", "writer", "attempts")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.attempts = 0


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
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._activity = asyncio.Event()
        self._server = None
        self.port = port
        if listen:
            try:
                self._server = self._loop.run_until_complete(
                    asyncio.start_server(self._on_client, host, port)
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
        """Queue ``message`` for delivery; returns the modelled delay.

        Non-blocking: the frame is encoded now (serialisation errors
        surface at the send site, like the simulator's payload checks)
        and flushed by the pooled link's writer task during pumps.
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
        self._link(address).queue.put_nowait(frame)
        return delay

    def _link(self, address: Tuple[str, int]) -> _Link:
        link = self._links.get(address)
        if link is None:
            link = _Link()
            self._links[address] = link
            link.task = self._loop.create_task(self._writer_loop(address, link))
        return link

    async def _writer_loop(self, address: Tuple[str, int], link: _Link) -> None:
        while True:
            frame = await link.queue.get()
            while True:
                try:
                    if link.writer is None or link.writer.is_closing():
                        await self._connect(address, link)
                    link.writer.write(_LEN.pack(len(frame)) + frame)
                    await link.writer.drain()
                    link.attempts = 0
                    break
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    if link.writer is not None:
                        link.writer.close()
                        link.writer = None
                    link.attempts += 1
                    if link.attempts > self.max_retries:
                        self.stats.dropped_offline += 1
                        link.attempts = 0
                        break
                    await asyncio.sleep(
                        min(
                            self.backoff_base * (2 ** (link.attempts - 1)),
                            self.backoff_max,
                        )
                    )

    async def _connect(self, address: Tuple[str, int], link: _Link) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(address[0], address[1]),
            self.connect_timeout,
        )
        del reader  # outbound links are write-only
        link.writer = writer

    # -- inbound ------------------------------------------------------------
    async def _on_client(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            while True:
                head = await reader.readexactly(4)
                (length,) = _LEN.unpack(head)
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"frame length {length} exceeds cap")
                frame = await reader.readexactly(length)
                self._on_frame(frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError, WireError):
            pass
        finally:
            writer.close()

    def _on_frame(self, frame: bytes) -> None:
        try:
            message = decode_message(frame)
        except WireError:
            self.stats.corrupted += 1
            return
        self._dispatch(message)
        self._activity.set()

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
        """Spin the asyncio loop, blocking up to ``max_wait`` s for I/O."""
        if self._closed:
            return
        if max_wait <= 0:
            self._loop.run_until_complete(asyncio.sleep(0))
            return
        self._loop.run_until_complete(self._wait_activity(max_wait))

    async def _wait_activity(self, max_wait: float) -> None:
        try:
            await asyncio.wait_for(self._activity.wait(), max_wait)
        except asyncio.TimeoutError:
            return
        self._activity.clear()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Teardown cancels reader tasks mid-await; asyncio's stream
        # protocol logs those cancellations through the loop exception
        # handler, which is pure noise during a deliberate close.
        self._loop.set_exception_handler(lambda loop, context: None)

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for link in self._links.values():
                if link.task is not None:
                    link.task.cancel()
                if link.writer is not None:
                    link.writer.close()
            await asyncio.sleep(0)

        self._loop.run_until_complete(_shutdown())
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()
