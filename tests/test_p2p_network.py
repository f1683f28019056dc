"""Tests for the simulated consumer network."""

import hashlib

import pytest

from repro.p2p import (
    DSL_PROFILE,
    LAN_PROFILE,
    Message,
    NetworkError,
    NodeProfile,
    SimNetwork,
)
from repro.simkernel import Simulator


def make_net(n=2, jitter=0.0):
    sim = Simulator(seed=1)
    net = SimNetwork(sim, jitter_fraction=jitter)
    boxes = {}
    for i in range(n):
        nid = f"peer-{i}"
        boxes[nid] = []
        net.add_node(nid, boxes[nid].append)
    return sim, net, boxes


def overlay_edges(net):
    """Each undirected overlay edge once, from the public surface."""
    return sorted(
        (a, b) for a in net.nodes() for b in net.neighbours(a) if a <= b
    )


def overlay_connected(net):
    """One BFS over ``neighbours()`` reaches every node."""
    nodes = net.nodes()
    seen, frontier = {nodes[0]}, [nodes[0]]
    while frontier:
        for nb in net.neighbours(frontier.pop()):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == set(nodes)


class TestMembership:
    def test_add_and_list(self):
        _, net, _ = make_net(3)
        assert sorted(net.nodes()) == ["peer-0", "peer-1", "peer-2"]

    def test_duplicate_rejected(self):
        _, net, _ = make_net(1)
        with pytest.raises(NetworkError):
            net.add_node("peer-0", lambda m: None)

    def test_remove(self):
        _, net, _ = make_net(2)
        net.remove_node("peer-1")
        assert net.nodes() == ["peer-0"]
        with pytest.raises(NetworkError):
            net.profile("peer-1")

    def test_unknown_node_operations(self):
        _, net, _ = make_net(1)
        for op in (net.profile, net.is_online, net.neighbours):
            with pytest.raises(NetworkError):
                op("ghost")


class TestProfiles:
    def test_default_is_dsl(self):
        _, net, _ = make_net(1)
        assert net.profile("peer-0") == DSL_PROFILE

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeProfile(up_bps=0)
        with pytest.raises(ValueError):
            NodeProfile(latency_s=-1)
        with pytest.raises(ValueError):
            NodeProfile(cpu_flops=0)

    def test_message_size_validation(self):
        with pytest.raises(ValueError):
            Message(kind="x", src="a", dst="b", size_bytes=-1)


class TestDelivery:
    def test_message_delivered_with_latency(self):
        sim, net, boxes = make_net(2)
        net.send(Message(kind="hello", src="peer-0", dst="peer-1", payload=42))
        assert boxes["peer-1"] == []  # not yet delivered
        sim.run()
        assert len(boxes["peer-1"]) == 1
        assert boxes["peer-1"][0].payload == 42
        assert sim.now > 0.04  # two 20 ms access latencies

    def test_transfer_time_scales_with_size(self):
        _, net, _ = make_net(2)
        t_small = net.transfer_time("peer-0", "peer-1", 1_000)
        t_big = net.transfer_time("peer-0", "peer-1", 10_000_000)
        assert t_big > 10 * t_small

    def test_lan_faster_than_dsl(self):
        sim = Simulator()
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.add_node("dsl", lambda m: None, DSL_PROFILE)
        net.add_node("lan-a", lambda m: None, LAN_PROFILE)
        net.add_node("lan-b", lambda m: None, LAN_PROFILE)
        assert net.transfer_time("lan-a", "lan-b", 10_000) < net.transfer_time(
            "lan-a", "dsl", 10_000
        )

    def test_uplink_bottleneck(self):
        """DSL upload is the bottleneck when a DSL node sends to LAN."""
        sim = Simulator()
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.add_node("dsl", lambda m: None, DSL_PROFILE)
        net.add_node("lan", lambda m: None, LAN_PROFILE)
        up = net.transfer_time("dsl", "lan", 1_000_000)
        down = net.transfer_time("lan", "dsl", 1_000_000)
        assert up > down  # uplink slower than downlink

    def test_stats_accounting(self):
        sim, net, _ = make_net(2)
        net.send(Message(kind="a", src="peer-0", dst="peer-1"))
        net.send(Message(kind="a", src="peer-0", dst="peer-1"))
        net.send(Message(kind="b", src="peer-1", dst="peer-0"))
        sim.run()
        assert net.stats.sent == 3
        assert net.stats.delivered == 3
        assert net.stats.by_kind == {"a": 2, "b": 1}
        assert net.stats.bytes_sent == 3 * 256

    def test_jitter_deterministic_per_seed(self):
        def run_once():
            sim, net, boxes = make_net(2, jitter=0.2)
            net.send(Message(kind="x", src="peer-0", dst="peer-1"))
            sim.run()
            return sim.now

        assert run_once() == run_once()


class TestChurn:
    def test_offline_destination_drops(self):
        sim, net, boxes = make_net(2)
        net.set_online("peer-1", False)
        net.send(Message(kind="x", src="peer-0", dst="peer-1"))
        sim.run()
        assert boxes["peer-1"] == []
        assert net.stats.dropped_offline == 1

    def test_goes_offline_in_flight(self):
        sim, net, boxes = make_net(2)
        net.send(Message(kind="x", src="peer-0", dst="peer-1", size_bytes=10_000_000))
        sim.run(until=0.01)
        net.set_online("peer-1", False)
        sim.run()
        assert boxes["peer-1"] == []
        assert net.stats.dropped_offline == 1

    def test_back_online_receives(self):
        sim, net, boxes = make_net(2)
        net.set_online("peer-1", False)
        net.set_online("peer-1", True)
        net.send(Message(kind="x", src="peer-0", dst="peer-1"))
        sim.run()
        assert len(boxes["peer-1"]) == 1


class TestOverlay:
    def test_edges_and_neighbours(self):
        _, net, _ = make_net(3)
        net.add_edge("peer-0", "peer-1")
        net.add_edge("peer-0", "peer-2")
        assert net.neighbours("peer-0") == ["peer-1", "peer-2"]
        assert net.neighbours("peer-1") == ["peer-0"]

    def test_random_overlay_connected(self):
        _, net, _ = make_net(20)
        net.random_overlay(degree=4)
        assert overlay_connected(net)

    def test_random_overlay_deterministic(self):
        def edges():
            _, net, _ = make_net(16)
            net.random_overlay(degree=4)
            return overlay_edges(net)

        assert edges() == edges()
        assert len(edges()) >= 16  # the ring alone
        # The seed-1 draw itself: E7's flooding cells walk these edges.
        assert hashlib.sha256(repr(edges()).encode()).hexdigest()[:16] == "22e3bd6ee5199ee4"

    def test_node_without_edges(self):
        _, net, _ = make_net(3)
        net.add_edge("peer-0", "peer-1")
        assert net.neighbours("peer-2") == []
        net.remove_node("peer-2")
        assert overlay_edges(net) == [("peer-0", "peer-1")]
        assert net.neighbours("peer-0") == ["peer-1"]

    def test_remove_node_leaves_no_dangling_neighbour(self):
        _, net, _ = make_net(3)
        net.add_edge("peer-0", "peer-1")
        net.add_edge("peer-0", "peer-2")
        net.add_edge("peer-0", "peer-0")  # a self-loop is its own neighbour
        assert net.neighbours("peer-0") == ["peer-0", "peer-1", "peer-2"]
        net.remove_node("peer-0")
        assert net.neighbours("peer-1") == [] and net.neighbours("peer-2") == []
        assert overlay_edges(net) == []
        with pytest.raises(NetworkError):
            net.neighbours("peer-0")

    def test_broadcast_counts(self):
        sim, net, boxes = make_net(4)
        net.add_edge("peer-0", "peer-1")
        net.add_edge("peer-0", "peer-2")
        n = net.broadcast("peer-0", "ping", None)
        assert n == 2
        sim.run()
        assert len(boxes["peer-1"]) == 1 and len(boxes["peer-2"]) == 1
        assert boxes["peer-3"] == []
