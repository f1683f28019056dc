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

from ..simkernel import AllOf, Event
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

    # -- wiring ---------------------------------------------------------------
    def connect(self, out_node: int, remote_service: str, remote_node: int) -> Event:
        """Bind output ``out_node`` to another service's input pipe.

        Returns the bind event (succeeds with the host peer id).
        """
        if not 0 <= out_node < len(self.outputs):
            raise PipeError(f"service {self.name!r} has no output node {out_node}")
        pipe = self.serve.pipes.create_output(input_pipe_name(remote_service, remote_node))
        self.outputs[out_node] = pipe
        return pipe.bind()

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

    def find_services(self, kind: str, predicate=None) -> Event:
        """Discover services of a kind anywhere on the network."""
        def full_predicate(attrs: dict[str, Any]) -> bool:
            if attrs.get("kind") != kind:
                return False
            return predicate is None or predicate(attrs)

        return self.discovery.query(self.peer, adv_type=ADV_SERVICE, predicate=full_predicate)

    def connect_chain(self, names: list[str], hosts: dict[str, str]) -> AllOf:
        """Wire service ``names[i]`` output 0 → ``names[i+1]`` input 0.

        ``hosts`` maps service name → peer id for direct binding of the
        stages whose placement the controller chose.  Returns an AllOf of
        the (trivial) bind events for interface symmetry.
        """
        events = []
        for a, b in zip(names, names[1:]):
            svc = self.services.get(a)
            if svc is None:
                raise PipeError(f"service {a!r} is not hosted on this peer")
            svc.connect_direct(0, b, 0, hosts[b])
            done = self.peer.sim.event()
            done.succeed(hosts[b])
            events.append(done)
        return AllOf(self.peer.sim, events)
