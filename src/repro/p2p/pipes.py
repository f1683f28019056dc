"""JXTA-style virtual pipes.

"for each input connection, the remote service advertises an input pipe
with that connection's unique name.  Since the local service knows the
connection's unique name it locates the pipe with that name and binds to
it" (§3.5).  This module keeps that mechanism's data path:

* an :class:`InputPipe` is created under a unique name and advertised
  through the discovery service; data arriving on it lands in a
  waitable :class:`~repro.simkernel.Store`;
* an :class:`OutputPipe` is bound to the peer hosting the input pipe
  (:meth:`OutputPipe.bind_direct`), then streams payloads to it.

The Triana service does not run on pipes: a ``p2p`` stage forwards
straight to the next stage's worker.  The pipes stay as the
``p2p.pipes.send_ns`` rung of the benchmark ladder (``gridbench``).

Pipe traffic adapts to whatever the underlying fabric models — "the
virtual communication paradigm in JXTA networks".  Pipes never touch
the fabric directly: everything goes through the hosting
:class:`~repro.p2p.peer.Peer`, so they run unchanged on any
``repro.transport`` backend (simulated or TCP).
"""

from __future__ import annotations

from typing import Any, Optional

from ..simkernel import Event, Store
from .advertisement import ADV_PIPE, Advertisement
from .discovery import DiscoveryService
from .errors import PipeError
from .network import Message
from .peer import Peer

__all__ = ["InputPipe", "OutputPipe", "PipeManager"]


class InputPipe:
    """A named, advertised receive endpoint on one peer."""

    def __init__(self, peer: Peer, name: str):
        self.name = name
        self.store: Store = Store(peer.sim)
        self.received = 0

    def get(self) -> Event:
        """Event yielding the next payload (FIFO)."""
        return self.store.get()


class OutputPipe:
    """A send endpoint for a named input pipe, bound to its host."""

    def __init__(self, peer: Peer, name: str):
        self.name = name
        self.peer = peer
        self.target: Optional[str] = None

    def bind_direct(self, host: str) -> None:
        """Bind to the peer hosting the input pipe."""
        self.target = host

    def send(self, payload: Any, size_bytes: Optional[int] = None) -> float:
        """Ship one payload down the pipe; returns modelled latency."""
        if self.target is None:
            raise PipeError(f"output pipe {self.name!r} is not bound")
        if size_bytes is None:
            size_bytes = (
                payload.payload_nbytes() if hasattr(payload, "payload_nbytes") else 256
            )
        return self.peer.send(
            self.target, "pipe-data", payload=(self.name, payload), size_bytes=size_bytes
        )


class PipeManager:
    """Per-peer pipe factory and demultiplexer.

    A manager owns its peer's ``pipe-data`` handler, so a peer has at
    most one (:meth:`Peer.on <repro.p2p.peer.Peer.on>` refuses a second).
    """

    def __init__(self, peer: Peer, discovery: DiscoveryService):
        self.peer = peer
        self.discovery = discovery
        self.inputs: dict[str, InputPipe] = {}
        peer.on("pipe-data", self._on_data)

    def create_input(self, name: str) -> InputPipe:
        """Create and advertise an input pipe under a unique name."""
        if name in self.inputs:
            raise PipeError(f"input pipe {name!r} already exists on {self.peer.peer_id!r}")
        pipe = self.inputs[name] = InputPipe(self.peer, name)
        host = self.peer.peer_id
        self.discovery.publish(
            self.peer, Advertisement.make(ADV_PIPE, name, host, attrs={"host": host})
        )
        return pipe

    def create_output(self, name: str) -> OutputPipe:
        """Create an output endpoint for pipe ``name``, to bind to its host."""
        return OutputPipe(self.peer, name)

    def _on_data(self, message: Message) -> None:
        name, payload = message.payload
        pipe = self.inputs.get(name)
        if pipe is not None:
            pipe.received += 1
            pipe.store.put(payload)
        # Data for unknown pipes is dropped (late traffic after teardown).
