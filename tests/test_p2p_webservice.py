"""Tests for the servlet/WSDL web face of a Triana peer."""

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.p2p import (
    CentralIndexDiscovery,
    JxtaServe,
    P2PError,
    Peer,
    SimNetwork,
    WebClient,
    WebServiceEndpoint,
    service_to_wsdl,
)
from repro.service import TextProgressView
from repro.simkernel import Simulator


def build():
    sim = Simulator(seed=91)
    net = SimNetwork(sim, jitter_fraction=0.0)
    server_peer = Peer("server", net)
    client_peer = Peer("client", net)
    endpoint = WebServiceEndpoint(server_peer)
    client = WebClient(client_peer)
    return sim, endpoint, client


class TestEndpoint:
    def test_request_response_cycle(self):
        sim, endpoint, client = build()
        endpoint.route("/hello", lambda m, p, b: (200, f"hi via {m}"))
        status, body = sim.run(until=client.request("server", "/hello"))
        assert status == 200
        assert body == "hi via GET"
        assert endpoint.requests_served == 1

    def test_404_for_unknown_path(self):
        sim, endpoint, client = build()
        status, body = sim.run(until=client.request("server", "/nope"))
        assert status == 404

    def test_500_on_handler_crash(self):
        sim, endpoint, client = build()

        def broken(m, p, b):
            raise RuntimeError("servlet exploded")

        endpoint.route("/broken", broken)
        status, body = sim.run(until=client.request("server", "/broken"))
        assert status == 500
        assert "servlet exploded" in body

    def test_post_body_reaches_handler(self):
        sim, endpoint, client = build()
        seen = {}

        def submit(method, path, body):
            seen.update(method=method, body=body)
            return (201, "accepted")

        endpoint.route("/submit", submit)
        status, _ = sim.run(
            until=client.request("server", "/submit", method="POST", body="<taskgraph/>")
        )
        assert status == 201
        assert seen == {"method": "POST", "body": "<taskgraph/>"}

    def test_duplicate_route_rejected(self):
        _sim, endpoint, _client = build()
        endpoint.route("/a", lambda m, p, b: (200, ""))
        with pytest.raises(P2PError):
            endpoint.route("/a", lambda m, p, b: (200, ""))


class TestBrowserProgressPage:
    def test_progress_page_over_http(self):
        """§3.2: progress of the running network via a standard browser."""
        grid = ConsumerGrid(n_workers=2, seed=92)
        view = TextProgressView()
        grid.controller.attach_monitor(view)
        endpoint = WebServiceEndpoint(grid.controller_peer)
        endpoint.route("/progress", lambda m, p, b: (200, view.page()))
        browser_peer = Peer("browser", grid.transport)
        browser = WebClient(browser_peer)

        grid.run(fig1_grouped(), iterations=4)
        status, page = grid.sim.run(
            until=browser.request("controller", "/progress")
        )
        assert status == 200
        assert "4/4 iterations (100%)" in page
        assert "run finished" in page


class TestWsdl:
    def test_wsdl_describes_nodes_and_address(self):
        sim = Simulator(seed=93)
        net = SimNetwork(sim, jitter_fraction=0.0)
        disc = CentralIndexDiscovery()
        peer = Peer("host-a", net)
        disc.attach(peer)
        disc.set_index(peer)
        serve = JxtaServe(peer, disc)
        svc = serve.register_service("analyser", kind="analysis",
                                     num_inputs=2, num_outputs=1)
        wsdl = service_to_wsdl(svc)
        assert 'name="analyser"' in wsdl
        assert "analyserIn0" in wsdl and "analyserIn1" in wsdl
        assert "analyserOut0" in wsdl
        assert 'location="triana://host-a/analyser"' in wsdl
        assert "portType" in wsdl

    def test_wsdl_is_valid_xml(self):
        import xml.etree.ElementTree as ET

        sim = Simulator(seed=94)
        net = SimNetwork(sim, jitter_fraction=0.0)
        disc = CentralIndexDiscovery()
        peer = Peer("h", net)
        disc.attach(peer)
        disc.set_index(peer)
        svc = JxtaServe(peer, disc).register_service("s", kind="k")
        root = ET.fromstring(service_to_wsdl(svc))
        assert root.tag == "definitions"
