"""Tests for the simulated consumer network."""

import hashlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GridConfig
from repro.p2p import (
    DSL_PROFILE,
    LAN_PROFILE,
    Message,
    NetworkError,
    NodeProfile,
    SimNetwork,
)
from repro.simkernel import RngRegistry, Simulator


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


class TestJitterValidation:
    BAD = [math.nan, -0.1, math.inf]

    @pytest.mark.parametrize("jitter", BAD)
    def test_network_refuses_it(self, jitter):
        with pytest.raises(NetworkError, match="jitter_fraction"):
            SimNetwork(Simulator(), jitter_fraction=jitter)

    @pytest.mark.parametrize("jitter", BAD)
    def test_grid_config_refuses_it(self, jitter):
        # not a grid setting at all: a simulated grid's links do not jitter
        with pytest.raises(TypeError, match="unknown grid setting 'jitter_fraction'"):
            GridConfig().replace(jitter_fraction=jitter)

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 5.0])
    def test_finite_non_negative_jitter_is_accepted(self, jitter):
        assert SimNetwork(Simulator(), jitter_fraction=jitter).jitter_fraction == jitter


CHAOS_STREAMS = ("net-jitter", "net-loss", "net-corrupt", "net-reorder", "net-dup")


def scalar_draw_reference(seed, chaos, sizes, profile):
    """What ``SimNetwork.send`` delivered when each chaos decision was one
    scalar numpy call: ``uniform`` for the jitter and the reorder stretch,
    ``random`` for the four coin flips.  Messages go out at t=0 between
    two online nodes of ``profile``; returns arrival ``(time, index)``
    pairs and the chaos counters."""
    rng = {name: RngRegistry(seed).fresh(name) for name in CHAOS_STREAMS}
    arrivals = []
    counts = dict(dropped_loss=0, corrupted=0, reordered=0, duplicated=0)
    for index, size in enumerate(sizes):
        delay = profile.latency_s + profile.latency_s + size / min(
            profile.up_bps, profile.down_bps)
        delay *= 1.0 + rng["net-jitter"].uniform(0, chaos.jitter_fraction)
        if rng["net-loss"].random() < chaos.loss_fraction:
            counts["dropped_loss"] += 1
            continue
        if rng["net-corrupt"].random() < chaos.corrupt_fraction:
            counts["corrupted"] += 1
            continue
        if rng["net-reorder"].random() < chaos.reorder_fraction:
            counts["reordered"] += 1
            delay *= 1.0 + float(rng["net-reorder"].uniform(1.0, 3.0))
        arrivals.append((delay, index))
        if rng["net-dup"].random() < chaos.duplicate_fraction:
            counts["duplicated"] += 1
            arrivals.append((delay * 1.5, index))
    return sorted(arrivals), counts


class TestChaosDraws:
    fraction = st.floats(0.01, 0.6)

    @given(
        seed=st.integers(0, 2**32),
        chaos=st.builds(
            SimpleNamespace, jitter_fraction=st.floats(0.01, 2.0), loss_fraction=fraction,
            corrupt_fraction=fraction, duplicate_fraction=fraction,
            reorder_fraction=fraction,
        ),
        # 300+ sends: the jitter and loss streams refill their block mid-run.
        sizes=st.lists(st.integers(0, 200_000), min_size=300, max_size=800),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_draws_deliver_what_scalar_draws_did(self, seed, chaos, sizes):
        sim = Simulator(seed=seed)
        net = SimNetwork(sim)
        for name, value in vars(chaos).items():  # what open fault windows set
            setattr(net, name, value)
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: got.append((sim.now, m.payload)))
        for index, size in enumerate(sizes):
            net.send(Message(kind="x", src="a", dst="b", payload=index, size_bytes=size))
        sim.run()
        arrivals, counts = scalar_draw_reference(seed, chaos, sizes, DSL_PROFILE)
        assert sorted(got) == arrivals
        stats = net.stats
        assert {name: getattr(stats, name) for name in counts} == counts
        assert (stats.sent, stats.delivered, stats.bytes_sent) == (
            len(sizes), len(arrivals), sum(sizes))
        assert (stats.in_flight, stats.in_flight_bytes) == (0, 0)


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


class TestContendedChurn:
    """On serialising links a message leaves its sender only when its
    uplink transfer ends: a sender that crashes first never sent it."""

    @staticmethod
    def crash_while_sending(sizes, crash_at, back_at=None, sizes_when_back=()):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, contention=True)
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: got.append((m.payload, sim.now)))
        for i, size in enumerate(sizes):
            net.send(Message(kind="x", src="a", dst="b", payload=i, size_bytes=size))
        sim.call_at(crash_at, net.set_online, "a", False)
        if back_at is not None:
            sim.call_at(back_at, net.set_online, "a", True)
        for i, size in enumerate(sizes_when_back, start=len(sizes)):
            sim.call_at(back_at, net.send, Message("x", "a", "b", i, size))
        sim.run()
        return net.stats, got

    def test_a_crashed_senders_queued_traffic_is_dropped(self):
        # DSL's 32 kB/s uplink: each message holds it for one second.
        stats, got = self.crash_while_sending([32_000] * 4, crash_at=0.5)
        assert got == []
        assert stats.dropped_offline == 4
        assert (stats.in_flight, stats.in_flight_bytes) == (0, 0)

    def test_a_sender_back_before_its_transfer_ends_still_lost_it(self):
        # Both were queued before the crash: the one on the wire and the
        # one waiting behind it are gone, though the sender is back
        # before either would have left.
        stats, got = self.crash_while_sending([32_000, 32_000], crash_at=0.3, back_at=0.6)
        assert got == []
        assert stats.dropped_offline == 2
        assert (stats.in_flight, stats.in_flight_bytes) == (0, 0)

    def test_a_lost_upload_holds_the_uplink_to_its_scheduled_end(self):
        # The first upload was on the wire at the crash: the uplink stays
        # busy until 1.0, when its last byte would have left, and the one
        # queued behind it never uses it.  Sent at 0.6, the third upload
        # runs 1.0-2.0 and arrives 0.04 s of latency and 0.256 s of
        # downlink later.  (Were the uplink free from the crash it would
        # arrive at 1.896.)
        stats, got = self.crash_while_sending(
            [32_000, 32_000], crash_at=0.3, back_at=0.6, sizes_when_back=[32_000]
        )
        assert got == [(2, pytest.approx(2.296, abs=1e-9))]
        assert stats.dropped_offline == 2 and stats.delivered == 1
        assert (stats.in_flight, stats.in_flight_bytes) == (0, 0)

    def test_what_left_the_uplink_before_the_crash_arrives(self):
        stats, got = self.crash_while_sending([16_000, 32_000], crash_at=0.75)
        assert [payload for payload, _ in got] == [0]
        assert stats.dropped_offline == 1 and stats.delivered == 1
        assert (stats.in_flight, stats.in_flight_bytes) == (0, 0)


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
        assert overlay_edges(net) == [("peer-0", "peer-1")]
        assert net.neighbours("peer-0") == ["peer-1"]


class PerMessageNetwork(SimNetwork):
    """The reference arrival path: one scheduled call per message, each
    a burst of one."""

    def _arrive(self, at, message):
        self.sim.call_at(at, self._deliver_burst, [message])


#: A profile whose 0-byte messages arrive at once and whose 10-byte ones
#: take 0.01 s, so arrivals pile onto the instants the driver runs at.
INSTANT = NodeProfile(up_bps=1e3, down_bps=1e3, latency_s=0.0)

#: One op of a burst program, run inside a driver call: a send
#: ``(src, dst, size, hops)`` whose receiver forwards it ``hops`` more
#: times, a zero-delay timer, or a liveness flip of one node.
burst_op = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from([0, 10]), st.integers(0, 2)),
    st.tuples(st.just("timer")),
    st.tuples(st.just("flip"), st.integers(0, 2)),
)


def run_burst_program(network_cls, program):
    """Run ``program`` — ``(time, ops)`` driver calls — on a three-node
    network; returns what happened, in order, with ``sim.now``."""
    sim = Simulator(seed=1)
    net = network_cls(sim)
    nodes = ["n0", "n1", "n2"]
    log = []

    def handler(node):
        def on_message(msg):
            tag, hops = msg.payload
            log.append((sim.now, "recv", node, tag, hops))
            if hops:
                dst = nodes[(tag + hops) % 3]
                net.send(Message("x", node, dst, (tag, hops - 1), 10 * (tag % 2)))
        return on_message

    for node, profile in zip(nodes, (INSTANT, INSTANT, LAN_PROFILE)):
        net.add_node(node, handler(node), profile)

    def drive(ops):
        for i, op in enumerate(ops):
            if op[0] == "send":
                _, src, dst, size, hops = op
                net.send(Message("x", nodes[src], nodes[dst], (i, hops), size))
            elif op[0] == "timer":
                sim.call_at(sim.now, log.append, (sim.now, "timer", i))
            else:
                node = nodes[op[1]]
                net.set_online(node, not net.is_online(node))

    for when, ops in program:
        sim.call_at(when, drive, ops)
    sim.run()
    stats = net.stats
    return log, (stats.sent, stats.delivered, stats.dropped_offline,
                 stats.in_flight, stats.in_flight_bytes)


def burst_net():
    """A network of three INSTANT nodes that log ``(now, dst, payload)``."""
    sim = Simulator(seed=1)
    net = SimNetwork(sim)
    log = []
    for i in range(3):
        nid = f"peer-{i}"
        net.add_node(nid, lambda m, nid=nid: log.append((sim.now, nid, m.payload)), INSTANT)
    return sim, net, log


def send(net, payload, dst="peer-1", size=10):
    return net.send(Message("x", "peer-0", dst, payload, size))


class TestBurstDelivery:
    """Messages that land on one instant share one kernel event, and
    everything observable is what one arrival event per message gives."""

    @given(program=st.lists(
        st.tuples(st.sampled_from([0.0, 0.01, 0.02]),
                  st.lists(burst_op, min_size=1, max_size=8)),
        max_size=8,
    ))
    @settings(max_examples=150, deadline=None)
    def test_bursts_deliver_what_one_event_per_message_does(self, program):
        assert (run_burst_program(SimNetwork, program)
                == run_burst_program(PerMessageNetwork, program))

    def test_same_instant_sends_run_as_one_event_in_send_order(self):
        sim, net, log = burst_net()
        sim.run()
        before = sim.events_executed
        (delay,) = {send(net, i) for i in range(100)}
        sim.run()
        assert sim.events_executed - before == 1
        assert log == [(delay, "peer-1", i) for i in range(100)]

    def test_a_timer_between_two_sends_splits_the_burst(self):
        sim, net, log = burst_net()
        delay = send(net, "first")
        sim.call_at(sim.now + delay, log.append, (sim.now + delay, "timer"))
        send(net, "second")
        sim.run()
        assert log == [(delay, "peer-1", "first"), (delay, "timer"),
                       (delay, "peer-1", "second")]
        assert sim.events_executed == 3

    def test_a_destination_going_offline_mid_burst_drops_the_later_messages(self):
        sim, net, log = burst_net()
        net.add_node("gate", lambda m: net.set_online("peer-1", False), INSTANT)
        send(net, 0)
        send(net, "off", dst="gate")
        send(net, 1)
        send(net, 2, dst="peer-2")
        sim.run()
        assert [entry[1:] for entry in log] == [("peer-1", 0), ("peer-2", 2)]
        assert sim.events_executed == 1
        assert (net.stats.delivered, net.stats.dropped_offline) == (3, 1)

    @pytest.mark.parametrize("fault, stretch", [
        ("duplicate_fraction", lambda delay: [delay, delay * 1.5]),
        ("reorder_fraction", lambda delay: [delay]),  # its own random hold
        ("jitter_fraction", lambda delay: [delay]),  # its own random stretch
    ])
    def test_chaos_copies_keep_their_own_instants(self, fault, stretch):
        def run(network_cls):
            sim = Simulator(seed=1)
            net = network_cls(sim)
            setattr(net, fault, 1.0)
            log = []
            net.add_node("a", lambda m: None, INSTANT)
            net.add_node("b", lambda m: log.append((sim.now, m.payload)), INSTANT)
            delays = [net.send(Message("x", "a", "b", i, 10)) for i in range(20)]
            sim.run()
            return log, delays, sim.events_executed

        log, delays, events = run(SimNetwork)
        assert sorted(log) == sorted(
            (at, i) for i, delay in enumerate(delays) for at in stretch(delay))
        assert len({at for at, _i in log}) == len(set(stretch(delays[0]))) * (
            1 if fault == "duplicate_fraction" else 20)
        reference_log, _delays, reference_events = run(PerMessageNetwork)
        assert log == reference_log and events <= reference_events

    def test_a_raising_handler_leaves_the_rest_of_its_burst_first(self):
        def run(network_cls):
            sim = Simulator(seed=1)
            net = network_cls(sim)
            log = []

            def on_message(msg):
                log.append((sim.now, msg.payload))
                if msg.payload == 1:
                    raise RuntimeError("handler failed")
                net.send(Message("x", "b", "a", ("reply", msg.payload), 0))

            net.add_node("a", lambda m: log.append((sim.now, m.payload)), INSTANT)
            net.add_node("b", on_message, INSTANT)
            for i in range(4):
                delay = net.send(Message("x", "a", "b", i, 10))
            sim.call_at(delay, log.append, (delay, "timer"))
            with pytest.raises(RuntimeError, match="handler failed"):
                sim.run()
            log.append("raised")
            sim.run()
            return log, net.stats.delivered, net.stats.in_flight

        log, delivered, in_flight = run(SimNetwork)
        assert log == [(0.01, 0), (0.01, 1), "raised", (0.01, 2), (0.01, 3),
                       (0.01, "timer"), (0.01, ("reply", 0)), (0.01, ("reply", 2)),
                       (0.01, ("reply", 3))]
        assert (delivered, in_flight) == (7, 0)
        assert run(PerMessageNetwork) == (log, delivered, in_flight)
