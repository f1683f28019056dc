"""Tests for the link-contention mode of SimNetwork."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p import DSL_PROFILE, LAN_PROFILE, Message, NodeProfile, SimNetwork
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


class FifoLink:
    """A link one message holds at a time, granted in request order: a
    request's event succeeds at once when the link is free, else when the
    holder ahead of it releases."""

    def __init__(self, sim):
        self.sim = sim
        self.held = False
        self.waiting = deque()

    def request(self):
        granted = self.sim.event()
        if self.held:
            self.waiting.append(granted)
        else:
            self.held = True
            granted.succeed()
        return granted

    def release(self):
        if self.waiting:
            self.waiting.popleft().succeed()
        else:
            self.held = False


class ProcessLinkNetwork(SimNetwork):
    """The reference serialising link: each message is a kernel process
    that queues on its sender's uplink, waits out the access latencies and
    its hold, then queues on its receiver's downlink.

    A process remembers its sender's crash count at send: a sender that
    went offline before the last byte left its uplink never got the
    message out, and a message still queued behind it leaves the uplink
    without using it."""

    def __init__(self, sim, jitter_fraction=0.0):
        super().__init__(sim, jitter_fraction=jitter_fraction, contention=True)
        self.crashes = {}
        self.uplinks = {}
        self.downlinks = {}

    def set_online(self, node_id, online):
        if not online and self.is_online(node_id):
            self.crashes[node_id] = self.crashes.get(node_id, 0) + 1
        super().set_online(node_id, online)

    def _upload(self, message, hold):
        crashes = self.crashes.get(message.src, 0)
        self.sim.process(self._transfer(message, hold, crashes))

    def _transfer(self, message, hold, crashes):
        sim = self.sim
        p_src, p_dst = self.profile(message.src), self.profile(message.dst)
        up = self.uplinks.setdefault(message.src, FifoLink(sim))
        yield up.request()
        try:
            if self.crashes.get(message.src, 0) == crashes:
                yield sim.timeout(message.size_bytes / p_src.up_bps)
        finally:
            up.release()
        if self.crashes.get(message.src, 0) != crashes:
            stats = self.stats
            stats.in_flight -= 1
            stats.in_flight_bytes -= message.size_bytes
            stats.dropped_offline += 1
            return
        yield sim.timeout(p_src.latency_s + p_dst.latency_s + hold)
        down = self.downlinks.setdefault(message.dst, FifoLink(sim))
        yield down.request()
        try:
            yield sim.timeout(message.size_bytes / p_dst.down_bps)
        finally:
            down.release()
        self._deliver_burst([message])


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


#: Link profiles the property draws its nodes from: DSL, cable, LAN,
#: and lines whose access latency is 0 (so stages end on shared instants).
link_profile = st.builds(
    NodeProfile,
    up_bps=st.sampled_from([8e3, 32e3, 64e3, 12.5e6]),
    down_bps=st.sampled_from([32e3, 125e3, 512e3, 12.5e6]),
    latency_s=st.sampled_from([0.0, 0.0005, 0.012, 0.02]),
)
#: A message size in bytes: 0 too.
size = st.sampled_from([0, 1, 1000, 16_000, 32_000]) | st.integers(0, 40_000)
#: One send: (instant, source, destination, size).
transfer = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0, 1.5]) | st.floats(0.0, 3.0),
    st.integers(0, 3), st.integers(0, 3), size,
)
#: One offline window: (node, offline at, back after or never, the sizes
#: the node sends to the next node once back).  A node back while an
#: upload it lost still holds its uplink sends behind that upload.
window = st.tuples(
    st.integers(0, 3),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 3.0),
    st.none() | st.sampled_from([0.0, 0.1, 0.3]) | st.floats(0.0, 2.0),
    st.lists(size, min_size=1, max_size=2),
)


def serialising(sim, jitter_fraction=0.0):
    return SimNetwork(sim, jitter_fraction=jitter_fraction, contention=True)


def run_traffic(network_cls, profiles, transfers, windows, chaos):
    """Run ``transfers`` over serialising links among nodes of
    ``profiles``, with offline ``windows`` and the ``chaos`` fractions
    (jitter, reorder, duplicate).  Returns what each node received, as
    ``(instant, payload)`` in order, and the traffic counts.

    Deliveries to two nodes on one instant are not ordered against each
    other: that is the one tie the two models break differently.  Clocks
    hand them over in the order they entered their downlinks, processes
    in the order their downloads started, so a zero-byte message that
    waited behind another on its downlink goes after one that entered
    another downlink on that instant."""
    jitter, reorder, duplicate = chaos
    sim = Simulator(seed=3)
    net = network_cls(sim, jitter_fraction=jitter)
    net.reorder_fraction, net.duplicate_fraction = reorder, duplicate
    nodes = [f"n{i}" for i in range(len(profiles))]
    got = {node: [] for node in nodes}
    for node, profile in zip(nodes, profiles):
        net.add_node(node, lambda m, box=got[node]: box.append((sim.now, m.payload)), profile)
    payloads = iter(range(10_000))
    for i, off_at, back_for, sizes in windows:
        node, after = nodes[i % len(nodes)], nodes[(i + 1) % len(nodes)]
        sim.call_at(off_at, net.set_online, node, False)
        if back_for is not None:
            sim.call_at(off_at + back_for, net.set_online, node, True)
            for size in sizes:
                message = Message("x", node, after, next(payloads), size)
                sim.call_at(off_at + back_for, net.send, message)
    for at, src, dst, size in transfers:
        message = Message("x", nodes[src % len(nodes)], nodes[dst % len(nodes)],
                          next(payloads), size)
        sim.call_at(at, net.send, message)
    sim.run()
    stats = net.stats
    return got, (stats.sent, stats.delivered, stats.dropped_offline, stats.duplicated,
                 stats.reordered, stats.in_flight, stats.in_flight_bytes)


class TestSerialisingLink:
    """Two clocks per node give what a process per message queueing on a
    FIFO per link gives: the same deliveries, at the same instants, in the
    same order, and the same losses."""

    @given(
        profiles=st.lists(link_profile, min_size=3, max_size=4, unique=True),
        transfers=st.lists(transfer, max_size=24),
        windows=st.lists(window, max_size=3),
        chaos=st.tuples(st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.3]),
                        st.sampled_from([0.0, 0.3])),
    )
    @settings(max_examples=400, deadline=None)
    def test_deliveries_equal_the_process_model(self, profiles, transfers, windows, chaos):
        assert (run_traffic(serialising, profiles, transfers, windows, chaos)
                == run_traffic(ProcessLinkNetwork, profiles, transfers, windows, chaos))

    def test_same_instant_entries_take_a_downlink_in_upload_end_order(self):
        # a's upload is sent first but ends at 1/32 s, b's at 1/64 s; both
        # enter d's downlink at 3/32 s, where b's goes first, as it would
        # had it waited out its latency from its own end.
        profiles = [NodeProfile(up_bps=32e3, down_bps=32e3, latency_s=0.0625),
                    NodeProfile(up_bps=64e3, down_bps=32e3, latency_s=0.078125),
                    NodeProfile(up_bps=32e3, down_bps=32e3, latency_s=0.0)]
        transfers = [(0.0, 0, 2, 1000), (0.0, 1, 2, 1000)]
        got, _ = run_traffic(serialising, profiles, transfers, [], (0.0, 0.0, 0.0))
        assert got["n2"] == [(0.125, 1), (0.15625, 0)]
        assert (got, _) == run_traffic(ProcessLinkNetwork, profiles, transfers, [],
                                       (0.0, 0.0, 0.0))

    def test_a_zero_time_upload_behind_another_enters_after_a_fresh_one(self):
        # n0's zero-byte upload to itself waits for n0's first zero-byte
        # upload to free the uplink, two rounds after n1's upload, sent
        # later, found its own uplink free: n1's reaches n0 first.
        profiles = [NodeProfile(up_bps=8e3, down_bps=32e3, latency_s=0.0005),
                    NodeProfile(up_bps=8e3, down_bps=125e3, latency_s=0.0005),
                    NodeProfile(up_bps=8e3, down_bps=32e3, latency_s=0.0)]
        transfers = [(0.0, 0, 0, 0), (0.0, 1, 0, 0)]
        windows = [(0, 0.0, 0.0, [0])]
        got, _ = run_traffic(serialising, profiles, transfers, windows, (0.0, 0.0, 0.0))
        assert got["n0"] == [(0.001, 2), (0.001, 1)]
        assert (got, _) == run_traffic(ProcessLinkNetwork, profiles, transfers, windows,
                                       (0.0, 0.0, 0.0))

    def test_uploads_handed_their_uplinks_on_one_instant_go_in_freeing_order(self):
        # At 1.0 both uplinks free: n0's, taken at 0, before n1's, taken
        # at 0.5; so n0's second upload, sent after n1's, enters first.
        profiles = [NodeProfile(up_bps=32e3, down_bps=32e3, latency_s=0.0),
                    NodeProfile(up_bps=32e3, down_bps=125e3, latency_s=0.0),
                    NodeProfile(up_bps=8e3, down_bps=32e3, latency_s=0.0)]
        transfers = [(0.0, 0, 2, 32_000), (0.5, 1, 2, 16_000),
                     (0.6, 1, 2, 1000), (0.7, 0, 2, 1000)]
        got, _ = run_traffic(serialising, profiles, transfers, [], (0.0, 0.0, 0.0))
        assert got["n2"] == [(2.0, 0), (2.5, 1), (2.53125, 3), (2.5625, 2)]
        assert (got, _) == run_traffic(ProcessLinkNetwork, profiles, transfers, [],
                                       (0.0, 0.0, 0.0))

    def test_each_lost_upload_hands_the_uplink_on_a_round_later(self):
        # n0 queues two uploads at 0, is offline 0.3-0.6 and sends again:
        # at 1.0 the lost one ahead costs that upload a round, so n2's,
        # sent at 1.0 to an idle uplink, enters n1's downlink first.
        profiles = [NodeProfile(up_bps=32e3, down_bps=125e3, latency_s=0.0),
                    NodeProfile(up_bps=32e3, down_bps=32e3, latency_s=0.0),
                    NodeProfile(up_bps=32e3, down_bps=512e3, latency_s=0.0)]
        transfers = [(0.0, 0, 1, 32_000), (0.0, 0, 1, 1000), (1.0, 2, 1, 1000)]
        windows = [(0, 0.3, 0.3, [1000])]
        got, stats = run_traffic(serialising, profiles, transfers, windows, (0.0, 0.0, 0.0))
        assert got["n1"] == [(1.0625, 3), (1.09375, 0)] and stats[2] == 2
        assert (got, stats) == run_traffic(ProcessLinkNetwork, profiles, transfers, windows,
                                           (0.0, 0.0, 0.0))

    def test_two_nodes_served_on_one_instant_in_entry_order(self):
        # d1's downlink is busy to 2.0 when the second message enters it at
        # 1.0, so that one's download runs 2.0-3.0; the message to d2
        # enters at 1.5 and downloads 1.5-3.0.  Clocks hand them over in
        # entry order; the process reference in download-start order.
        def order(network_cls):
            sim = Simulator(seed=1)
            net = network_cls(sim)
            got = []
            for node, down_bps in (("s", 1e9), ("d1", 1000.0), ("d2", 1000.0)):
                profile = NodeProfile(up_bps=float("inf"), down_bps=down_bps, latency_s=0.0)
                net.add_node(node, lambda m, node=node: got.append((sim.now, node)), profile)
            for at, dst, size in ((0.0, "d1", 2000), (1.0, "d1", 1000), (1.5, "d2", 1500)):
                sim.call_at(at, net.send, Message("x", "s", dst, None, size))
            sim.run()
            return got

        assert order(serialising) == [(2.0, "d1"), (3.0, "d1"), (3.0, "d2")]
        assert order(ProcessLinkNetwork) == [(2.0, "d1"), (3.0, "d2"), (3.0, "d1")]

    def test_a_crash_on_the_instant_an_upload_ends_loses_it(self):
        profiles = [DSL_PROFILE, LAN_PROFILE, NodeProfile(latency_s=0.0)]
        # 32 kB on DSL's 32 kB/s uplink: the last byte leaves at 1.0.
        transfers = [(0.0, 0, 1, 32_000)]
        for network_cls in (serialising, ProcessLinkNetwork):
            got, stats = run_traffic(network_cls, profiles, transfers,
                                     [(0, 1.0, None, [])], (0.0, 0.0, 0.0))
            assert got["n1"] == [] and stats[2] == 1
