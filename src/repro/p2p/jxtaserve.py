"""JXTAServe — the service-oriented facade over pipes and discovery.

"JXTAServe therefore implements a service-oriented architecture based on
JXTA.  A JXTAServe service can have one or more input nodes (one is
needed for control at least) and can have zero, one or more output nodes.
It advertises its input and output nodes as JXTA pipes and connects
between pipes using the virtual communication paradigm."

A :class:`JxtaService` lives on one peer, owns named input pipes
(``<service>.in<k>``), and output endpoints that bind to other services'
input pipes.  "There is almost a one to one correlation with the Triana
implementation and the functionality of JXTAServe": here the database
scenario (:mod:`repro.apps.database`, E6) runs its services on this
facade; the Triana service layer (:mod:`repro.service`) addresses its
workers directly with ``Peer.send`` / ``Peer.on``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .advertisement import ADV_SERVICE, Advertisement
from .discovery import DiscoveryService
from .errors import PipeError
from .peer import Peer
from .pipes import OutputPipe, PipeManager

__all__ = ["JxtaService", "JxtaServe"]


def input_pipe_name(service_name: str, node: int) -> str:
    """The unique pipe name convention for a service input node."""
    return f"{service_name}.in{node}"


class JxtaService:
    """One service instance hosted on a peer."""

    def __init__(
        self,
        serve: "JxtaServe",
        name: str,
        kind: str,
        num_inputs: int = 1,
        num_outputs: int = 0,
        handler: Optional[Callable[[int, Any, "JxtaService"], None]] = None,
        attrs: Optional[dict[str, Any]] = None,
    ):
        if num_inputs < 1:
            raise PipeError("a JXTAServe service needs at least one input (control)")
        self.serve = serve
        self.name = name
        self.kind = kind
        self.peer: Peer = serve.peer
        self.handler = handler
        self.attrs = dict(attrs or {})
        self.inputs = [
            serve.pipes.create_input(
                input_pipe_name(name, k),
                callback=(lambda payload, k=k: self._on_input(k, payload)),
            )
            for k in range(num_inputs)
        ]
        self.outputs: list[Optional[OutputPipe]] = [None] * num_outputs

    # -- data plane ----------------------------------------------------------
    def _on_input(self, node: int, payload: Any) -> None:
        if self.handler is not None:
            self.handler(node, payload, self)

    def emit(self, node: int, payload: Any, size_bytes: Optional[int] = None) -> float:
        """Send a payload out of output node ``node``."""
        pipe = self.outputs[node]
        if pipe is None:
            raise PipeError(f"service {self.name!r} output {node} is not connected")
        return pipe.send(payload, size_bytes)

    def connect_direct(self, out_node: int, remote_service: str, remote_node: int, host: str) -> None:
        """Bind without discovery when placement is already known."""
        pipe = self.serve.pipes.create_output(input_pipe_name(remote_service, remote_node))
        pipe.bind_direct(host)
        self.outputs[out_node] = pipe

    def advertisement(self) -> Advertisement:
        attrs = {"host": self.peer.peer_id, "kind": self.kind, **self.attrs}
        return Advertisement.make(ADV_SERVICE, self.name, self.peer.peer_id, attrs=attrs)


class JxtaServe:
    """The per-peer JXTAServe runtime (pipe manager + service registry)."""

    def __init__(self, peer: Peer, discovery: DiscoveryService):
        self.peer = peer
        self.discovery = discovery
        self.pipes = PipeManager.for_peer(peer, discovery)
        self.services: dict[str, JxtaService] = {}

    def register_service(
        self,
        name: str,
        kind: str,
        num_inputs: int = 1,
        num_outputs: int = 0,
        handler: Optional[Callable[[int, Any, JxtaService], None]] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> JxtaService:
        """Create, advertise and return a service."""
        if name in self.services:
            raise PipeError(f"service {name!r} already registered on {self.peer.peer_id!r}")
        svc = JxtaService(self, name, kind, num_inputs, num_outputs, handler, attrs)
        self.services[name] = svc
        self.discovery.publish(self.peer, svc.advertisement())
        return svc
