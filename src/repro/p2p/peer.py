"""Peers and peer groups.

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

from ..simkernel import Simulator
from .advertisement import ADV_PEER, AdvCache, Advertisement
from .errors import NetworkError, PeerOfflineError
from .network import Message, NodeProfile, Transport

__all__ = ["Peer", "PeerGroup"]

#: Every peer outside all groups holds this one value: each ``frozenset()``
#: call is a new object the collector tracks, and most peers join nothing.
_NO_GROUPS: frozenset[str] = frozenset()


class Peer:
    """One Consumer Grid participant.

    ``network`` is the :class:`~repro.p2p.network.Transport` the peer
    is seated on — a :class:`~repro.p2p.network.SimNetwork`, or a socket
    fabric such as :class:`~repro.transport.tcp.TcpTransport`.  The peer
    reads its clock (``self.sim``) from it, which is how the same
    protocol code runs on simulated time and wall time.

    ``__slots__`` keeps 100k-peer swarms cheap; ``_pipe_manager`` is
    declared here because :class:`~repro.p2p.pipes.PipeManager` annotates
    peers with a back-reference on attach.
    """

    __slots__ = ("peer_id", "network", "sim", "cache", "groups", "_handlers", "_pipe_manager")

    def __init__(
        self,
        peer_id: str,
        network: Transport,
        profile: Optional[NodeProfile] = None,
        groups: tuple[str, ...] = (),
    ):
        self.peer_id = peer_id
        self.network = network
        self.sim: Simulator = network.sim
        self.cache = AdvCache()
        #: a value, rebound (never mutated) by :class:`PeerGroup`
        self.groups: frozenset[str] = frozenset(groups) if groups else _NO_GROUPS
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

    # -- self-description ----------------------------------------------------------
    def self_advertisement(self, ttl: float = float("inf")) -> Advertisement:
        """Peer advertisement carrying capability attributes (§4)."""
        p = self.profile
        expires = self.sim.now + ttl if ttl != float("inf") else float("inf")
        return Advertisement.make(
            ADV_PEER,
            self.peer_id,
            self.peer_id,
            attrs={
                "cpu_flops": p.cpu_flops,
                "free_ram": p.ram_bytes,
                "up_bps": p.up_bps,
                "down_bps": p.down_bps,
                "groups": ",".join(sorted(self.groups)),
            },
            expires_at=expires,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "online" if self.online else "offline"
        return f"Peer({self.peer_id!r}, {state})"


class PeerGroup:
    """A virtual peer group: "group peers with common capability".

    Groups are advisory labels carried in peer advertisements; a group
    object tracks membership and can filter discovery results.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("group name must be non-empty")
        self.name = name
        self.members: set[str] = set()

    def join(self, peer: Peer) -> None:
        peer.groups = peer.groups | {self.name}
        self.members.add(peer.peer_id)

    def leave(self, peer: Peer) -> None:
        peer.groups = (peer.groups - {self.name}) or _NO_GROUPS
        self.members.discard(peer.peer_id)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self.members

    def __len__(self) -> int:
        return len(self.members)

    def predicate(self) -> Callable[[dict[str, Any]], bool]:
        """Attribute predicate selecting advertisements from members."""
        return lambda attrs: self.name in str(attrs.get("groups", "")).split(",")
