"""Tests for the link-contention mode of SimNetwork."""

import pytest

from repro.p2p import DSL_PROFILE, LAN_PROFILE, Message, SimNetwork
from repro.simkernel import Simulator


def build(contention, profile=DSL_PROFILE, n=3, jitter=0.0):
    sim = Simulator(seed=1)
    net = SimNetwork(sim, jitter_fraction=jitter, contention=contention)
    arrivals = {}
    for i in range(n):
        nid = f"n{i}"
        arrivals[nid] = []
        net.add_node(nid, lambda m, nid=nid: arrivals[nid].append(sim.now), profile)
    return sim, net, arrivals


class TestHoldsUnderContention:
    """Jitter and a reorder hold stretch a contended delivery too."""

    def test_jitter_adds_the_same_hold_either_way(self):
        def arrival(contention, jitter):
            sim, net, arrivals = build(contention, jitter=jitter)
            net.send(Message(kind="x", src="n0", dst="n1", size_bytes=32_000))
            sim.run()
            return arrivals["n1"][0]

        held = arrival(False, 0.5) - arrival(False, 0.0)
        assert held > 0.01
        assert arrival(True, 0.5) - arrival(True, 0.0) == pytest.approx(held)

    def test_reordered_messages_arrive_out_of_order(self):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, contention=True)
        net.reorder_fraction = 0.5
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: got.append(m.payload))
        for i in range(20):
            net.send(Message(kind="x", src="a", dst="b", payload=i))
        sim.run()
        assert net.stats.reordered > 0
        assert sorted(got) == list(range(20)) and got != sorted(got)


class TestContention:
    def test_single_message_similar_to_uncontended(self):
        """One lone transfer costs about the same either way."""
        times = {}
        for mode in (False, True):
            sim, net, arrivals = build(mode)
            net.send(Message(kind="x", src="n0", dst="n1", size_bytes=32_000))
            sim.run()
            times[mode] = arrivals["n1"][0]
        # Contended path pays up + down serially instead of min(); same
        # order of magnitude.
        assert times[True] == pytest.approx(times[False], rel=1.5)

    def test_concurrent_sends_queue_on_uplink(self):
        """Two simultaneous sends on one DSL uplink serialise."""
        sim, net, arrivals = build(True)
        for dst in ("n1", "n2"):
            net.send(Message(kind="x", src="n0", dst=dst, size_bytes=32_000))
        sim.run()
        first = min(arrivals["n1"] + arrivals["n2"])
        second = max(arrivals["n1"] + arrivals["n2"])
        # Uplink time for 32 kB at 32 kB/s is ~1 s; the second transfer
        # waits for the first.
        assert second - first > 0.8

    def test_uncontended_sends_overlap(self):
        sim, net, arrivals = build(False)
        for dst in ("n1", "n2"):
            net.send(Message(kind="x", src="n0", dst=dst, size_bytes=32_000))
        sim.run()
        t1, t2 = arrivals["n1"][0], arrivals["n2"][0]
        assert t1 == pytest.approx(t2, abs=1e-9)

    def test_distinct_uplinks_do_not_interfere(self):
        sim, net, arrivals = build(True)
        net.send(Message(kind="x", src="n0", dst="n2", size_bytes=32_000))
        net.send(Message(kind="x", src="n1", dst="n2", size_bytes=32_000))
        sim.run()
        # Downlink is 4x faster than uplink, so the shared downlink adds
        # little; both arrive within ~an uplink time + small serialisation.
        assert max(arrivals["n2"]) < 1.8

    def test_offline_destination_still_dropped(self):
        sim, net, arrivals = build(True)
        net.set_online("n1", False)
        net.send(Message(kind="x", src="n0", dst="n1", size_bytes=1000))
        sim.run()
        assert arrivals["n1"] == []
        assert net.stats.dropped_offline == 1

    def test_lan_contention_negligible(self):
        sim, net, arrivals = build(True, profile=LAN_PROFILE)
        for dst in ("n1", "n2"):
            net.send(Message(kind="x", src="n0", dst=dst, size_bytes=32_000))
        sim.run()
        assert max(arrivals["n1"] + arrivals["n2"]) < 0.02

    def test_grid_accepts_contention_flag(self):
        from repro import ConsumerGrid
        from repro.analysis import fig1_grouped

        grid = ConsumerGrid(n_workers=2, seed=99, contention=True)
        report = grid.run(fig1_grouped(), iterations=3)
        assert len(report.group_results) == 3
