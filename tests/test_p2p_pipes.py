"""Tests for pipes and the JXTAServe facade."""

import pytest

from repro.core import SampleSet
from repro.p2p import (
    ADV_SERVICE,
    CentralIndexDiscovery,
    JxtaServe,
    Peer,
    PipeError,
    SimNetwork,
    input_pipe_name,
)
from repro.p2p.pipes import PipeManager
from repro.simkernel import Simulator

import numpy as np


def build(n=3):
    sim = Simulator(seed=3)
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = CentralIndexDiscovery(query_window=1.0)
    peers = [Peer(f"peer-{i}", net) for i in range(n)]
    for p in peers:
        disc.attach(p)
    disc.set_index(peers[0])
    managers = [PipeManager(p, disc) for p in peers]
    return sim, net, disc, peers, managers


class TestPipes:
    def test_send_before_bind_rejected(self):
        sim, net, disc, peers, mgrs = build()
        out = mgrs[2].create_output("x")
        with pytest.raises(PipeError):
            out.send(1)

    def test_bind_direct_skips_discovery(self):
        sim, net, disc, peers, mgrs = build()
        inp = mgrs[1].create_input("direct")
        out = mgrs[2].create_output("direct")
        out.bind_direct("peer-1")
        out.send("payload")
        value = sim.run(until=inp.get())
        assert value == "payload"
        assert disc.stats.queries == 0

    def test_duplicate_input_name_rejected(self):
        sim, net, disc, peers, mgrs = build()
        mgrs[1].create_input("dup")
        with pytest.raises(PipeError):
            mgrs[1].create_input("dup")

    def test_payload_size_inferred_from_triana_type(self):
        sim, net, disc, peers, mgrs = build()
        mgrs[1].create_input("sig")
        out = mgrs[2].create_output("sig")
        out.bind_direct("peer-1")
        sig = SampleSet(data=np.zeros(10_000), sampling_rate=1.0)
        before = net.stats.bytes_sent
        out.send(sig)
        assert net.stats.bytes_sent - before >= 80_000

    def test_fifo_order_preserved(self):
        sim, net, disc, peers, mgrs = build()
        inp = mgrs[1].create_input("fifo")
        out = mgrs[2].create_output("fifo")
        out.bind_direct("peer-1")
        for i in range(5):
            out.send(i, size_bytes=10)
        sim.run()
        assert list(inp.store.items) == [0, 1, 2, 3, 4]

    def test_callback_invoked(self):
        sim, net, disc, peers, mgrs = build()
        seen = []
        mgrs[1].create_input("cb", callback=seen.append)
        out = mgrs[2].create_output("cb")
        out.bind_direct("peer-1")
        out.send("x")
        sim.run()
        assert seen == ["x"]

    def test_callback_pipe_keeps_nothing(self):
        # A callback consumes the payload: the store stays empty and a
        # delivery costs no kernel event of its own.  The 100 sends land
        # on one instant, so one arrival event delivers all of them.
        sim, net, disc, peers, mgrs = build()
        seen = []
        inp = mgrs[1].create_input("cb", callback=seen.append)
        out = mgrs[2].create_output("cb")
        out.bind_direct("peer-1")
        sim.run()
        before = sim.events_executed
        for i in range(100):
            out.send(i, size_bytes=10)
        sim.run()
        assert seen == list(range(100)) and inp.received == 100
        assert len(inp.store.items) == 0
        assert sim.events_executed - before == 1  # one arrival per instant

    def test_callback_pipe_on_distinct_instants(self):
        # Each send lands on an instant of its own: one arrival per send.
        sim, net, disc, peers, mgrs = build()
        seen = []
        inp = mgrs[1].create_input("cb", callback=seen.append)
        out = mgrs[2].create_output("cb")
        out.bind_direct("peer-1")
        sim.run()
        before = sim.events_executed
        for i in range(100):
            out.send(i, size_bytes=10)
            sim.run()
        assert seen == list(range(100)) and inp.received == 100
        assert len(inp.store.items) == 0
        assert sim.events_executed - before == 100  # one arrival per send


class TestJxtaServe:
    def test_service_registration_and_discovery(self):
        sim, net, disc, peers, _ = build()
        serve1 = JxtaServe(peers[1], disc)
        serve2 = JxtaServe(peers[2], disc)
        serve1.register_service("analysis-a", kind="analysis")
        sim.run()
        ev = disc.query(
            peers[2], adv_type=ADV_SERVICE,
            predicate=lambda attrs: attrs.get("kind") == "analysis",
        )
        results = sim.run(until=ev)
        assert [a.name for a in results] == ["analysis-a"]
        assert results[0].attributes["host"] == "peer-1"

    def test_duplicate_service_rejected(self):
        sim, net, disc, peers, _ = build()
        serve = JxtaServe(peers[1], disc)
        serve.register_service("svc", kind="k")
        with pytest.raises(PipeError):
            serve.register_service("svc", kind="k")

    def test_service_needs_control_input(self):
        sim, net, disc, peers, _ = build()
        serve = JxtaServe(peers[1], disc)
        with pytest.raises(PipeError):
            serve.register_service("bad", kind="k", num_inputs=0)

    def test_pipeline_of_services(self):
        """Two services chained via discovered pipes, data flows through."""
        sim, net, disc, peers, _ = build()
        serve1 = JxtaServe(peers[1], disc)
        serve2 = JxtaServe(peers[2], disc)
        results = []

        def double(node, payload, svc):
            svc.emit(0, payload * 2, size_bytes=16)

        def collect(node, payload, svc):
            results.append(payload)

        doubler = serve1.register_service("doubler", kind="map", num_outputs=1, handler=double)
        serve2.register_service("sink", kind="sink", handler=collect)
        sim.run()
        doubler.connect_direct(0, "sink", 0, "peer-2")
        # Inject data into the doubler's input pipe directly.
        serve1.pipes.inputs[input_pipe_name("doubler", 0)]._deliver(21)
        sim.run()
        assert results == [42]

    def test_emit_unconnected(self):
        sim, net, disc, peers, _ = build()
        serve = JxtaServe(peers[1], disc)
        svc = serve.register_service("s", kind="k", num_outputs=1)
        with pytest.raises(PipeError):
            svc.emit(0, "data")
