"""Peers.

"a Consumer Grid is composed of a number of peers.  Each peer provides a
service ... in that it can receive and process requests and returns
results" — and "every entity on the network can be both a service user
and a service provider".

A :class:`Peer` is one network endpoint: it owns an advertisement cache,
a table of protocol handlers keyed by message kind, and liveness state.
Higher layers (discovery strategies, pipes, the Triana service) attach
handlers to peers rather than subclassing them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkernel import Event, Simulator
from .advertisement import AdvCache
from .errors import NetworkError, PeerOfflineError, RequestFailed
from .network import Message, NodeProfile, Transport

__all__ = ["Peer", "ASK_ATTEMPTS"]

#: asks of one request before :meth:`Peer.ask` gives up
ASK_ATTEMPTS = 3


class Peer:
    """One Consumer Grid participant.

    ``network`` is the :class:`~repro.p2p.network.Transport` the peer
    is seated on — a :class:`~repro.p2p.network.SimNetwork`, or a socket
    fabric such as :class:`~repro.transport.tcp.TcpTransport`.  The peer
    reads its clock (``self.sim``) from it, which is how the same
    protocol code runs on simulated time and wall time.

    ``__slots__`` keeps 100k-peer swarms cheap.
    """

    __slots__ = ("peer_id", "network", "sim", "cache", "_handlers")

    def __init__(
        self,
        peer_id: str,
        network: Transport,
        profile: Optional[NodeProfile] = None,
    ):
        self.peer_id = peer_id
        self.network = network
        self.sim: Simulator = network.sim
        self.cache = AdvCache()
        self._handlers: dict[str, Callable[[Message], None]] = {}
        network.add_node(peer_id, self._dispatch, profile)

    # -- liveness -------------------------------------------------------------
    @property
    def online(self) -> bool:
        return self.network.is_online(self.peer_id)

    def go_offline(self) -> None:
        """Churn: the user pulled the plug / intervened."""
        self.network.set_online(self.peer_id, False)

    def go_online(self) -> None:
        self.network.set_online(self.peer_id, True)

    @property
    def profile(self) -> NodeProfile:
        return self.network.profile(self.peer_id)

    # -- protocol handlers -----------------------------------------------------
    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Install a handler for one message kind (one handler per kind)."""
        if kind in self._handlers:
            raise NetworkError(
                f"peer {self.peer_id!r} already handles {kind!r}"
            )
        self._handlers[kind] = handler

    def replace_handler(self, kind: str, handler: Callable[[Message], None]) -> None:
        self._handlers[kind] = handler

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(message)
        # Unknown kinds are dropped: an open network receives junk.

    # -- messaging ---------------------------------------------------------------
    def send(self, dst: str, kind: str, payload: Any = None, size_bytes: int = 256) -> float:
        """Send a message; offline senders cannot transmit."""
        if not self.network.is_online(self.peer_id):
            raise PeerOfflineError(f"peer {self.peer_id!r} is offline")
        return self.network.send(
            Message(kind=kind, src=self.peer_id, dst=dst, payload=payload, size_bytes=size_bytes)
        )

    def ask(self, attempt: Callable[[], Event], what: str):
        """``yield from`` this: ``attempt()`` sends a request and returns its
        reply event, which carries its own deadline; a failed or empty reply
        is asked again, and ``ASK_ATTEMPTS`` misses raise RequestFailed."""
        for _ in range(ASK_ATTEMPTS):
            try:
                reply = yield attempt()
            except Exception as exc:
                cause = f"{type(exc).__name__}: {exc}"
                continue
            if reply:
                return reply
            cause = "empty reply"
        raise RequestFailed(
            f"peer {self.peer_id!r} gave up on {what} at t={self.sim.now:g} "
            f"after {ASK_ATTEMPTS} attempts; last: {cause}"
        )
