"""Tests for pipes, and for the paper's JXTAServe service model.

JXTAServe's services advertise what they offer and are found by it;
here a service is a worker, and what it offers is its :class:`Site`.
"""

import pytest

from repro import ConsumerGrid, TaskGraph
from repro.core import SampleSet
from repro.p2p import (
    ADV_SERVICE,
    CentralIndexDiscovery,
    NetworkError,
    Peer,
    PipeError,
    SimNetwork,
)
from repro.p2p.advertisement import AttrPredicate
from repro.p2p.pipes import PipeManager
from repro.service.worker import Site
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

    def test_one_manager_per_peer(self):
        # the manager owns the peer's pipe-data handler
        sim, net, disc, peers, mgrs = build()
        with pytest.raises(NetworkError, match="already handles 'pipe-data'"):
            PipeManager(peers[1], disc)

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

    def test_sends_on_one_instant_arrive_in_one_event(self):
        # The 100 sends land on one instant, so one arrival event
        # delivers all of them, in order; each payload's store put is an
        # event of its own.
        sim, net, disc, peers, mgrs = build()
        inp = mgrs[1].create_input("burst")
        out = mgrs[2].create_output("burst")
        out.bind_direct("peer-1")
        sim.run()
        before = sim.events_executed
        for i in range(100):
            out.send(i, size_bytes=10)
        sim.run()
        assert list(inp.store.items) == list(range(100)) and inp.received == 100
        assert sim.events_executed - before == 1 + 100  # one arrival, 100 puts

    def test_sends_on_distinct_instants_arrive_one_event_each(self):
        # Each send lands on an instant of its own: one arrival per send.
        sim, net, disc, peers, mgrs = build()
        inp = mgrs[1].create_input("spread")
        out = mgrs[2].create_output("spread")
        out.bind_direct("peer-1")
        sim.run()
        before = sim.events_executed
        for i in range(100):
            out.send(i, size_bytes=10)
            sim.run()
        assert list(inp.store.items) == list(range(100)) and inp.received == 100
        assert sim.events_executed - before == 100 + 100  # an arrival per send


class TestJxtaServe:
    def test_service_registration_and_discovery(self):
        grid = ConsumerGrid(n_workers=1, seed=3)
        grid.add_worker("analysis-a", site=Site("lab", 0.5, ("analysis",)))
        grid.sim.run()
        ev = grid.discovery.query(
            grid.controller_peer, adv_type=ADV_SERVICE,
            predicate=AttrPredicate.make(equals={"site": "lab"}),
        )
        (adv,) = grid.sim.run(until=ev)
        attrs = adv.attributes
        assert attrs["host"] == "analysis-a"
        assert (attrs["accuracy"], attrs["services"]) == (0.5, ("analysis",))
        assert "tables" not in attrs  # written only when set

    def test_duplicate_service_rejected(self):
        grid = ConsumerGrid(n_workers=1, seed=3)
        grid.add_worker("svc", site=Site("lab"))
        with pytest.raises(NetworkError, match="already registered"):
            grid.add_worker("svc", site=Site("lab"))

    def test_pipeline_of_services(self):
        """Two stages on two peers: data flows peer to peer, and only
        the last stage reports to the controller."""
        g = TaskGraph("two-stage")
        g.add_task("Wave", "Wave", samples=64)
        g.add_task("Gain", "Gain", factor=2.0)
        g.add_task("Probe", "ScopeProbe")
        g.add_task("Sink", "Grapher")
        for a, b in [("Wave", "Gain"), ("Gain", "Probe"), ("Probe", "Sink")]:
            g.connect(a, 0, b, 0)
        g.group_tasks("Chain", ["Gain", "Probe"], policy="p2p")
        grid = ConsumerGrid(n_workers=2, seed=3)
        report = grid.run(g, iterations=2)
        assert list(report.placements.values()) == ["worker-0", "worker-1"]
        assert grid.transport.stats.by_kind["group-result"] == 2
        (out,) = report.group_results[1]
        np.testing.assert_allclose(np.abs(out.data).max(), 2.0, rtol=1e-6)
