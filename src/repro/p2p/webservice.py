"""The Web-facing side of a Triana peer.

§1: "a Triana server could be implemented as a Servlet and run as a Web
service" and "We also hope to provide a Web Services Description
Language (WSDL) interface to these at a later time."  §3.2: "users
should be able to obtain progress of their running network via the
internet using a standard Web browser."

This module provides both:

* :class:`WebServiceEndpoint` — a servlet-style request/response facade
  on a peer: ``http-request`` messages carry (method, path, body) and are
  answered with (status, body) — the in-simulation equivalent of HTTP;
* :func:`service_to_wsdl` — a WSDL-like interface description generated
  from a JXTAServe service's nodes.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from typing import Callable, Optional

from ..simkernel import Event
from .errors import P2PError
from .jxtaserve import JxtaService
from .network import Message
from .peer import Peer

__all__ = ["WebServiceEndpoint", "WebClient", "service_to_wsdl"]


class WebServiceEndpoint:
    """A servlet container on one peer: routes paths to handlers.

    Handlers take ``(method, path, body)`` and return ``(status, body)``.
    """

    def __init__(self, peer: Peer):
        self.peer = peer
        self._routes: dict[str, Callable[[str, str, str], tuple[int, str]]] = {}
        self.requests_served = 0
        peer.on("http-request", self._on_request)

    def route(self, path: str, handler: Callable[[str, str, str], tuple[int, str]]) -> None:
        """Mount a handler at an exact path."""
        if path in self._routes:
            raise P2PError(f"path {path!r} already routed")
        self._routes[path] = handler

    def _on_request(self, message: Message) -> None:
        request_id, method, path, body = message.payload
        handler = self._routes.get(path)
        if handler is None:
            status, response = 404, f"no such path {path!r}"
        else:
            try:
                status, response = handler(method, path, body)
            except Exception as exc:  # servlet-style error page
                status, response = 500, f"{type(exc).__name__}: {exc}"
        self.requests_served += 1
        self.peer.send(
            message.src,
            "http-response",
            payload=(request_id, status, response),
            size_bytes=64 + len(response),
        )


class WebClient:
    """The browser/WAP side: issues requests, yields response events."""

    def __init__(self, peer: Peer):
        self.peer = peer
        self._pending: dict[int, Event] = {}
        self._request_ids = itertools.count(1)
        peer.on("http-response", self._on_response)

    def request(
        self, server: str, path: str, method: str = "GET", body: str = ""
    ) -> Event:
        """Send a request; the event yields ``(status, body)``."""
        request_id = next(self._request_ids)
        ev = self.peer.sim.event()
        self._pending[request_id] = ev
        self.peer.send(
            server,
            "http-request",
            payload=(request_id, method, path, body),
            size_bytes=96 + len(body),
        )
        return ev

    def _on_response(self, message: Message) -> None:
        request_id, status, body = message.payload
        ev = self._pending.pop(request_id, None)
        if ev is not None and not ev.triggered:
            ev.succeed((status, body))


def service_to_wsdl(service: JxtaService) -> str:
    """Generate a WSDL-like interface description for a service.

    Port types mirror the service's input/output pipe nodes; the service
    element binds them to the hosting peer (the "endpoint address").
    """
    definitions = ET.Element(
        "definitions", name=service.name, targetNamespace=f"urn:triana:{service.name}"
    )
    for k, _pipe in enumerate(service.inputs):
        msg = ET.SubElement(definitions, "message", name=f"{service.name}In{k}")
        ET.SubElement(msg, "part", name="payload", type="triana:TrianaType")
    for k in range(len(service.outputs)):
        msg = ET.SubElement(definitions, "message", name=f"{service.name}Out{k}")
        ET.SubElement(msg, "part", name="payload", type="triana:TrianaType")
    port_type = ET.SubElement(definitions, "portType", name=f"{service.name}PortType")
    op = ET.SubElement(port_type, "operation", name=service.kind)
    for k in range(len(service.inputs)):
        ET.SubElement(op, "input", message=f"{service.name}In{k}")
    for k in range(len(service.outputs)):
        ET.SubElement(op, "output", message=f"{service.name}Out{k}")
    svc = ET.SubElement(definitions, "service", name=service.name)
    port = ET.SubElement(svc, "port", name=f"{service.name}Port",
                         binding=f"{service.name}Binding")
    ET.SubElement(port, "address", location=f"triana://{service.peer.peer_id}/{service.name}")
    ET.indent(definitions)
    return ET.tostring(definitions, encoding="unicode")
