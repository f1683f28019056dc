"""``TcpTransport``: the protocol over real sockets.

An asyncio TCP backend carrying the exact same :class:`Message` traffic
the simulator models, across OS processes.  A frame carries its
destination id, so one listening port hosts several local nodes (the
controller process co-hosts the portal and the controller peer, like
the paper's Triana portal node), and even same-process traffic crosses
the real socket path.  The link logic is the two socket-free machines
of :mod:`repro.transport.link`; the classes here adapt them to asyncio.
The transport is *mechanism only*: discovery, liveness suspicion,
retries and integrity voting stay in the layers above.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..p2p.errors import NetworkError
from ..p2p.network import LAN_PROFILE, Message, NetStats, NodeProfile, Transport
from .link import LENGTH, FrameCutter, Link
from .wire import WireError, decode_message, encode_message

__all__ = ["TcpTransport"]

#: seconds a dial may take before it counts as failed
CONNECT_TIMEOUT = 5.0
#: Loop turns ``close()`` runs after cancelling and aborting everything:
#: a cancelled connect unwinds in one turn, the transport it may have
#: built is torn down in the next, its callbacks run in the third.
_CLOSE_TURNS = 4


class _TcpLink(Link, asyncio.Protocol):
    """A :class:`Link` whose outputs are loop calls and whose inputs are
    the callbacks of its one connection at a time, ``transport``, for
    which it is the protocol; ``connecting`` is the dial in flight."""

    __slots__ = ("owner", "address", "transport", "connecting")

    def __init__(self, owner: "TcpTransport", address: Tuple[str, int]) -> None:
        super().__init__()
        self.owner = owner
        self.address = address
        self.transport: Optional[asyncio.Transport] = None
        self.connecting: Optional[asyncio.Task] = None

    def write(self, frame: bytes) -> None:
        self.transport.writelines((LENGTH.pack(len(frame)), frame))

    def dial(self) -> None:
        if self.owner._closed:
            return
        loop = self.owner._loop
        host, port = self.address
        task = self.connecting = loop.create_task(
            loop.create_connection(lambda: self, host, port)
        )
        timeout = loop.call_later(CONNECT_TIMEOUT, task.cancel)
        task.add_done_callback(lambda task: self._dial_done(timeout, task))

    def _dial_done(self, timeout: asyncio.TimerHandle, task: asyncio.Task) -> None:
        timeout.cancel()
        failed = task.cancelled() or task.exception() is not None
        # A dial that reached connection_made is over even if its task
        # then fails; a later dial may be under way by now.
        if failed and self.connecting is task and not self.owner._closed:
            self.connecting = None
            self.dial_failed()

    def arm(self, delay: float) -> None:
        self.owner._loop.call_later(delay, self.timer_fired)

    def drop(self, frame: bytes) -> None:
        self.owner.stats.dropped_offline += 1

    def connection_made(self, transport) -> None:
        if self.owner._closed:
            transport.abort()
            return
        self.owner._connections.add(transport)
        self.transport = transport
        self.connecting = None
        self.connected()

    def pause_writing(self) -> None:
        # Over the high-water mark: later frames wait in ``pending``
        # instead of growing asyncio's one flat write buffer.
        self.set_writable(False)

    def resume_writing(self) -> None:
        self.set_writable(True)

    def connection_lost(self, exc) -> None:
        self.owner._connections.discard(self.transport)
        self.transport = None
        self.lost()


class _FrameReader(FrameCutter, asyncio.Protocol):
    """An accepted connection, its chunks cut into frames."""

    __slots__ = ("owner", "transport")

    def __init__(self, owner: "TcpTransport") -> None:
        super().__init__(owner._on_frame)
        self.owner = owner

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.owner._closed:
            transport.abort()
            return
        self.owner._connections.add(transport)

    def connection_lost(self, exc) -> None:
        self.owner._connections.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        try:
            self.feed(data)
        except WireError:
            # This connection is beyond resync, the listener is not.
            self.owner.stats.corrupted += 1
            self.transport.abort()


class TcpTransport(Transport):
    """Asyncio TCP backend: length-prefixed canonical frames, pooled links."""

    def __init__(
        self,
        sim,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: Optional[Dict[str, Tuple[str, int]]] = None,
    ):
        self.sim = sim
        self.host = host
        self.stats = NetStats()
        self.compute_faults: Dict[str, Any] = {}
        self.contention = False  # bandwidth is not modelled on sockets
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._profiles: Dict[str, NodeProfile] = {}
        self._online: Dict[str, bool] = {}
        self._addresses: Dict[str, Tuple[str, int]] = dict(peers or {})
        self._links: Dict[Tuple[str, int], _TcpLink] = {}
        #: every live connection, inbound and outbound, so close() can
        #: abort them all
        self._connections: Set[asyncio.Transport] = set()
        self._closed = False
        #: a frame arrived since the last blocking pump returned
        self._activity = False
        self._loop = asyncio.new_event_loop()
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
        sim.set_pump(self.pump)

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
        self._profiles[node_id] = profile or LAN_PROFILE
        self._online[node_id] = True
        self._addresses.setdefault(node_id, (self.host, self.port))

    def nodes(self) -> List[str]:
        return sorted(self._handlers)

    # -- liveness & profiles ------------------------------------------------
    def is_online(self, node_id: str) -> bool:
        # Remote liveness is unknowable without probing; the failure
        # detector above owns suspicion, so the transport stays
        # optimistic for peers it does not host.
        return self._online.get(node_id, True)

    def set_online(self, node_id: str, online: bool) -> None:
        self._online[node_id] = online

    def profile(self, node_id: str) -> NodeProfile:
        return self._profiles.get(node_id, LAN_PROFILE)

    # -- traffic ------------------------------------------------------------
    def send(self, message: Message) -> float:
        """Send ``message``; returns the modelled delay.

        Encoded now, so serialisation errors surface at the send site,
        and written through: a live connection takes the frame at once
        (asyncio buffers only what the kernel refuses), so it leaves
        when it is sent, not at the next pump.  Else its link queues it.
        """
        src, dst, size = message.src, message.dst, message.size_bytes
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size
        by_kind = stats.by_kind
        by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
        tracer = self.sim.tracer
        if tracer.enabled:
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
            stats.dropped_offline += 1
            return delay
        link = self._links.get(address)
        if link is None:
            link = self._links[address] = _TcpLink(self, address)
        transport = link.transport
        if transport is not None and transport.is_closing():
            # Dying: hold frames until connection_lost re-dials.
            link.set_writable(False)
        link.send(frame)
        return delay

    # -- inbound ------------------------------------------------------------
    def _on_frame(self, frame: bytes) -> None:
        try:
            message = decode_message(frame)
        except WireError:
            self.stats.corrupted += 1
            return
        self._activity = True
        self._loop.stop()  # ends a blocking pump after this loop turn
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
        """Spin the asyncio loop under the pump contract of
        :class:`~repro.transport.runtime.RealtimeSimulator`.

        ``max_wait <= 0`` is exactly one loop turn.  A frame stops a
        blocking pump's loop; the rest of that turn's ready I/O still runs.
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

        Nothing here waits on a future: dials are cancelled, connections
        aborted (bytes the kernel had not yet taken are dropped, like
        frames still pending), and the loop is given a fixed number of
        turns to unwind them.  No link code outlives this call —
        whatever runs in those turns (a backoff timer, say) sees
        ``_closed``.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        self._server.close()
        for task in asyncio.all_tasks(loop):
            task.cancel()  # dials: no other task runs on this loop
        for transport in list(self._connections):
            transport.abort()
        for _ in range(_CLOSE_TURNS):
            loop.stop()
            loop.run_forever()
        loop.close()
