"""Tests for the three discovery strategies."""

import pytest

from repro.p2p import (
    ADV_PEER,
    ADV_SERVICE,
    Advertisement,
    CentralIndexDiscovery,
    DiscoveryError,
    FloodingDiscovery,
    AdvCache,
    Peer,
    PeerGroup,
    RendezvousDiscovery,
    SimNetwork,
)
from repro.simkernel import Simulator


def build(n, strategy, overlay_degree=4):
    sim = Simulator(seed=7)
    net = SimNetwork(sim, jitter_fraction=0.0)
    peers = [Peer(f"peer-{i}", net) for i in range(n)]
    for p in peers:
        strategy.attach(p)
    net.random_overlay(degree=overlay_degree)
    return sim, net, peers


def service_adv(peer, kind="compute"):
    return Advertisement.make(
        ADV_SERVICE, f"svc-{peer.peer_id}", peer.peer_id, attrs={"kind": kind}
    )


class TestCentralIndex:
    def test_publish_query_cycle(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(5, disc)
        disc.set_index(peers[0])
        disc.publish(peers[3], service_adv(peers[3]))
        sim.run()
        ev = disc.query(peers[4], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert [a.publisher for a in results] == ["peer-3"]

    def test_index_must_be_designated(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(2, disc)
        with pytest.raises(DiscoveryError):
            disc.publish(peers[0], service_adv(peers[0]))

    def test_query_from_index_itself(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(3, disc)
        disc.set_index(peers[0])
        disc.publish(peers[1], service_adv(peers[1]))
        sim.run()
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert len(results) == 1

    def test_offline_index_returns_empty_after_window(self):
        disc = CentralIndexDiscovery(query_window=1.0)
        sim, net, peers = build(3, disc)
        disc.set_index(peers[0])
        disc.publish(peers[1], service_adv(peers[1]))
        sim.run()
        peers[0].go_offline()
        ev = disc.query(peers[2], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert results == []
        assert sim.now >= 1.0

    def test_message_cost_constant_in_network_size(self):
        """2 messages per query regardless of peer count (the Napster win)."""
        costs = {}
        for n in (8, 64):
            disc = CentralIndexDiscovery()
            sim, net, peers = build(n, disc)
            disc.set_index(peers[0])
            for p in peers[1:]:
                disc.publish(p, service_adv(p))
            sim.run()
            before = net.stats.sent
            ev = disc.query(peers[1], adv_type=ADV_SERVICE)
            sim.run(until=ev)
            sim.run()
            costs[n] = net.stats.sent - before
        assert costs[8] == costs[64] == 2


class TestFlooding:
    def test_finds_remote_advertisement(self):
        disc = FloodingDiscovery(ttl=8)
        sim, net, peers = build(10, disc)
        disc.publish(peers[7], service_adv(peers[7]))
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert [a.publisher for a in results] == ["peer-7"]

    def test_ttl_limits_reach(self):
        # Line topology: peer-0 - peer-1 - ... - peer-9; TTL 2 reaches peer-2.
        sim = Simulator(seed=1)
        net = SimNetwork(sim, jitter_fraction=0.0)
        disc = FloodingDiscovery(ttl=2, query_window=5.0)
        peers = [Peer(f"p{i}", net) for i in range(10)]
        for p in peers:
            disc.attach(p)
        for a, b in zip(peers, peers[1:]):
            net.add_edge(a.peer_id, b.peer_id)
        disc.publish(peers[2], service_adv(peers[2]))
        disc.publish(peers[5], service_adv(peers[5]))
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert [a.publisher for a in results] == ["p2"]  # p5 out of TTL reach

    def test_ttl_validation(self):
        with pytest.raises(DiscoveryError):
            FloodingDiscovery(ttl=0)

    def test_duplicate_suppression(self):
        """Each peer forwards a given query at most once."""
        disc = FloodingDiscovery(ttl=10, query_window=10.0)
        sim, net, peers = build(12, disc, overlay_degree=6)
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        sim.run(until=ev)
        sim.run()
        # Σ degrees / 2 (random_overlay draws distinct ends: no self-loop)
        n_edges = sum(len(net.neighbours(n)) for n in net.nodes()) // 2
        # Flood cost bounded by 2 messages per edge.
        assert disc.stats.query_messages <= 2 * n_edges

    def test_message_cost_grows_with_network(self):
        costs = {}
        for n in (8, 64):
            disc = FloodingDiscovery(ttl=8)
            sim, net, peers = build(n, disc)
            before = net.stats.sent
            ev = disc.query(peers[0], adv_type=ADV_SERVICE)
            sim.run(until=ev)
            sim.run()
            costs[n] = net.stats.sent - before
        assert costs[64] > 4 * costs[8]


class TestRendezvous:
    def test_publish_and_query_via_rendezvous(self):
        disc = RendezvousDiscovery()
        sim, net, peers = build(10, disc)
        disc.add_rendezvous(peers[0])
        disc.add_rendezvous(peers[1])
        disc.publish(peers[5], service_adv(peers[5]))
        sim.run()
        ev = disc.query(peers[8], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert [a.publisher for a in results] == ["peer-5"]

    def test_rendezvous_queries_itself(self):
        disc = RendezvousDiscovery()
        sim, net, peers = build(4, disc)
        disc.add_rendezvous(peers[0])
        disc.publish(peers[2], service_adv(peers[2]))
        sim.run()
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert len(results) == 1

    def test_no_rendezvous_error(self):
        disc = RendezvousDiscovery()
        sim, net, peers = build(2, disc)
        with pytest.raises(DiscoveryError):
            disc.publish(peers[0], service_adv(peers[0]))

    def test_assignment_deterministic(self):
        disc = RendezvousDiscovery()
        sim, net, peers = build(6, disc)
        disc.add_rendezvous(peers[0])
        disc.add_rendezvous(peers[1])
        first = disc.rendezvous_for("peer-3")
        assert disc.rendezvous_for("peer-3") == first

    def test_message_cost_scales_with_rendezvous_not_network(self):
        costs = {}
        for n in (16, 128):
            disc = RendezvousDiscovery()
            sim, net, peers = build(n, disc)
            disc.add_rendezvous(peers[0])
            disc.add_rendezvous(peers[1])
            for p in peers[2:]:
                disc.publish(p, service_adv(p))
            sim.run()
            before = net.stats.sent
            ev = disc.query(peers[5], adv_type=ADV_SERVICE)
            sim.run(until=ev)
            sim.run()
            costs[n] = net.stats.sent - before
        assert costs[16] == costs[128]
        assert costs[16] <= 6  # query + forward + 2 replies (+ slack)


class TestDiscoveryCommon:
    def test_reattach_rejected(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(2, disc)
        with pytest.raises(DiscoveryError):
            disc.attach(peers[0])

    @pytest.mark.parametrize(
        "make", [CentralIndexDiscovery, FloodingDiscovery, RendezvousDiscovery]
    )
    def test_every_peer_shares_the_services_handlers(self, make):
        disc = make()
        _sim, _net, peers = build(2, disc)
        kinds = [k for k in peers[0]._handlers if k.startswith(disc.KIND_PREFIX)]
        assert len(kinds) >= 2
        for kind in kinds:
            assert peers[0]._handlers[kind] is peers[1]._handlers[kind]

    def test_unattached_peer_lookup(self):
        disc = CentralIndexDiscovery()
        with pytest.raises(DiscoveryError):
            disc.peer("ghost")

    @pytest.mark.parametrize("make", [CentralIndexDiscovery, RendezvousDiscovery])
    def test_an_index_asking_reads_its_own_cache_once(self, make):
        # query() adds the asker's own cache to the answer; when the
        # asker *is* the index (or a rendezvous) the strategy must not
        # run the identical lookup a second time.
        disc = make()
        sim, net, peers = build(4, disc)
        if make is CentralIndexDiscovery:
            disc.set_index(peers[0])
        else:
            disc.add_rendezvous(peers[0])
            disc.add_rendezvous(peers[1])
        for p in peers[1:]:
            disc.publish(p, service_adv(p))
        sim.run()
        lookups = []
        cache_query = peers[0].cache.query
        peers[0].cache.query = lambda *a, **kw: lookups.append(a) or cache_query(*a, **kw)
        ev = disc.query(peers[0], adv_type=ADV_SERVICE)
        results = sim.run(until=ev)
        assert len(lookups) == 1
        assert [a.publisher for a in results] == ["peer-1", "peer-2", "peer-3"]
        forwarded = make is RendezvousDiscovery
        assert disc.stats.query_messages == disc.stats.reply_messages == int(forwarded)

    def test_query_learns_into_local_cache(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(3, disc)
        disc.set_index(peers[0])
        disc.publish(peers[1], service_adv(peers[1]))
        sim.run()
        ev = disc.query(peers[2], adv_type=ADV_SERVICE)
        sim.run(until=ev)
        # The result is now cached locally.
        assert len(peers[2].cache.query(sim.now, adv_type=ADV_SERVICE)) == 1

    def test_peer_capability_attributes_match_paper(self):
        """Discovery 'based on very simple attributes – such as CPU
        capability and available free memory' (§4)."""
        disc = CentralIndexDiscovery()
        sim, net, peers = build(4, disc)
        disc.set_index(peers[0])
        for p in peers:
            disc.publish(p, p.self_advertisement())
        sim.run()
        ev = disc.query(
            peers[1],
            adv_type=ADV_PEER,
            predicate=lambda a: a["cpu_flops"] >= 2e9 and a["free_ram"] >= 1e8,
        )
        results = sim.run(until=ev)
        assert len(results) == 4

    def test_peer_group_predicate(self):
        disc = CentralIndexDiscovery()
        sim, net, peers = build(4, disc)
        disc.set_index(peers[0])
        group = PeerGroup("fast-cpus")
        group.join(peers[1])
        group.join(peers[2])
        for p in peers:
            disc.publish(p, p.self_advertisement())
        sim.run()
        ev = disc.query(peers[3], adv_type=ADV_PEER, predicate=group.predicate())
        results = sim.run(until=ev)
        assert sorted(a.publisher for a in results) == ["peer-1", "peer-2"]
        assert len(group) == 2
        group.leave(peers[1])
        assert "peer-1" not in group


def twin(publisher):
    """A record as two worker processes may mint it: the same ``adv_id``."""
    return Advertisement(ADV_SERVICE, "svc", publisher, adv_id=5)


class TestSameAdvIdOrder:
    def test_replies_in_either_arrival_order_give_one_answer(self):
        def answer(first, second):
            disc = RendezvousDiscovery()
            sim = Simulator(seed=7)
            net = SimNetwork(sim, jitter_fraction=0.0)
            rdv = {pid: Peer(pid, net) for pid in ("rdv-a", "rdv-b")}
            asker = Peer("edge", net)
            for p in (*rdv.values(), asker):
                disc.attach(p)
            rdv["rdv-a"].cache.put(twin("worker-b"))
            rdv["rdv-b"].cache.put(twin("worker-a"))
            # The asker's own rendezvous answers a hop before the other.
            disc.add_rendezvous(rdv[first])
            disc.add_rendezvous(rdv[second])
            ev = disc.query(asker, adv_type=ADV_SERVICE)
            return [a.publisher for a in sim.run(until=ev)]

        assert answer("rdv-a", "rdv-b") == answer("rdv-b", "rdv-a") == [
            "worker-a", "worker-b",
        ]

    def test_cache_lists_same_adv_id_records_in_one_order(self):
        orders = []
        for publishers in (("worker-a", "worker-b"), ("worker-b", "worker-a")):
            cache = AdvCache()
            for pub in publishers:
                cache.put(twin(pub))
            orders.append((
                [a.publisher for a in cache],
                [a.publisher for a in cache.query(0.0, adv_type=ADV_SERVICE)],
                [a.publisher for a in cache.query(0.0, name="svc")],
            ))
        assert orders[0] == orders[1] == (["worker-a", "worker-b"],) * 3
