"""JXTA-style virtual pipes.

"for each input connection, the remote service advertises an input pipe
with that connection's unique name.  Since the local service knows the
connection's unique name it locates the pipe with that name and binds to
it" (§3.5).  This module reproduces that mechanism:

* an :class:`InputPipe` is created under a unique name and advertised
  through the discovery service;
* an :class:`OutputPipe` *binds* by discovering the advertisement, then
  streams payloads to the hosting peer;
* data arriving on an input pipe goes to its callback, if it has one,
  or else lands in a waitable :class:`~repro.simkernel.Store`.

Pipe traffic adapts to whatever the underlying fabric models — "the
virtual communication paradigm in JXTA networks".  Pipes never touch
the fabric directly: everything goes through the hosting
:class:`~repro.p2p.peer.Peer`, so they run unchanged on any
``repro.transport`` backend (simulated or TCP).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkernel import Event, Store
from .advertisement import ADV_PIPE, Advertisement
from .discovery import DiscoveryService
from .errors import PipeError
from .network import Message
from .peer import Peer

__all__ = ["InputPipe", "OutputPipe", "PipeManager"]


class InputPipe:
    """A named, advertised receive endpoint on one peer."""

    def __init__(self, manager: "PipeManager", name: str):
        self.manager = manager
        self.name = name
        self.peer = manager.peer
        self.store: Store = Store(self.peer.sim)
        self.callback: Optional[Callable[[Any], None]] = None
        self.received = 0

    def get(self) -> Event:
        """Event yielding the next payload (FIFO)."""
        return self.store.get()

    def _deliver(self, payload: Any) -> None:
        """Hand ``payload`` to the callback if there is one, else queue it
        for :meth:`get`."""
        self.received += 1
        if self.callback is not None:
            self.callback(payload)
        else:
            self.store.put(payload)

    def advertisement(self) -> Advertisement:
        return Advertisement.make(
            ADV_PIPE, self.name, self.peer.peer_id, attrs={"host": self.peer.peer_id}
        )


class OutputPipe:
    """A send endpoint that binds to a named input pipe by discovery."""

    def __init__(self, manager: "PipeManager", name: str):
        self.manager = manager
        self.name = name
        self.peer = manager.peer
        self.target: Optional[str] = None
        self.sent = 0

    def bind_direct(self, host: str) -> None:
        """Bind without discovery (when the controller dictates placement)."""
        self.target = host

    def send(self, payload: Any, size_bytes: Optional[int] = None) -> float:
        """Ship one payload down the pipe; returns modelled latency."""
        if self.target is None:
            raise PipeError(f"output pipe {self.name!r} is not bound")
        if size_bytes is None:
            size_bytes = (
                payload.payload_nbytes() if hasattr(payload, "payload_nbytes") else 256
            )
        self.sent += 1
        return self.peer.send(
            self.target, "pipe-data", payload=(self.name, payload), size_bytes=size_bytes
        )


class PipeManager:
    """Per-peer pipe factory and demultiplexer.

    At most one manager exists per peer (it owns the ``pipe-data``
    handler); use :meth:`for_peer` when the caller may not be first.
    """

    def __init__(self, peer: Peer, discovery: DiscoveryService):
        if getattr(peer, "_pipe_manager", None) is not None:
            raise PipeError(
                f"peer {peer.peer_id!r} already has a PipeManager; "
                "use PipeManager.for_peer()"
            )
        self.peer = peer
        self.discovery = discovery
        self.inputs: dict[str, InputPipe] = {}
        peer.on("pipe-data", self._on_data)
        peer._pipe_manager = self  # type: ignore[attr-defined]

    @classmethod
    def for_peer(cls, peer: Peer, discovery: DiscoveryService) -> "PipeManager":
        """Return the peer's existing manager or create one."""
        existing = getattr(peer, "_pipe_manager", None)
        if existing is not None:
            return existing
        return cls(peer, discovery)

    def create_input(
        self, name: str, callback: Optional[Callable[[Any], None]] = None
    ) -> InputPipe:
        """Create and advertise an input pipe under a unique name."""
        if name in self.inputs:
            raise PipeError(f"input pipe {name!r} already exists on {self.peer.peer_id!r}")
        pipe = InputPipe(self, name)
        pipe.callback = callback
        self.inputs[name] = pipe
        self.discovery.publish(self.peer, pipe.advertisement())
        return pipe

    def create_output(self, name: str) -> OutputPipe:
        """Create an output endpoint that will bind to pipe ``name``."""
        return OutputPipe(self, name)

    def _on_data(self, message: Message) -> None:
        name, payload = message.payload
        pipe = self.inputs.get(name)
        if pipe is not None:
            pipe._deliver(payload)
        # Data for unknown pipes is dropped (late traffic after teardown).
