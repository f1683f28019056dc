"""Admission: a controller that waits for volunteers sleeps.

``DiscoveryService.next_publish`` on the simulated network (it fires at
the delivery, once, per peer) and ``ControllerNode.wait_for_workers``
on real sockets (a few queries and no CPU, where it used to be a
busy-wait of ~1 000 queries per half second).

Every test arms the SIGALRM hard timeout of ``test_transport_tcp``.
"""

import time

import pytest

from repro.deployment import ControllerNode, _free_ports, launch_worker
from repro.p2p import (
    ADV_SERVICE,
    Advertisement,
    CentralIndexDiscovery,
    FloodingDiscovery,
    Peer,
    RendezvousDiscovery,
    SimNetwork,
)
from repro.p2p.network import Message
from repro.simkernel import Simulator

from .test_transport_tcp import hard_timeout  # noqa: F401  (autouse fixture)

HOST = "127.0.0.1"


# ---------------------------------------------------------------------------
# next_publish on the simulator
# ---------------------------------------------------------------------------


def adv_of(peer):
    return Advertisement.make(ADV_SERVICE, f"svc-{peer.peer_id}", peer.peer_id)


def build(strategy):
    """(sim, discovery, [hub-0, hub-1], edge): the edge publishes to hub-0,
    the index (central) or the rendezvous it is assigned to."""
    sim = Simulator(seed=3)
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = strategy()
    hubs = [Peer(f"hub-{i}", net) for i in range(2)]
    edge = Peer("edge", net)
    for peer in hubs + [edge]:
        disc.attach(peer)
    if strategy is CentralIndexDiscovery:
        disc.set_index(hubs[0])
    else:
        for hub in hubs:
            disc.add_rendezvous(hub)
        assert disc.rendezvous_for("edge") == "hub-0"
    return sim, disc, hubs, edge


@pytest.mark.parametrize("strategy", [CentralIndexDiscovery, RendezvousDiscovery])
class TestNextPublish:
    def test_one_waiter_fires_once_at_the_delivery(self, strategy):
        sim, disc, hubs, edge = build(strategy)
        delivered = []

        def deliver(message):
            delivered.append(sim.now)
            disc._on_publish(message)

        hubs[0].replace_handler(f"{disc.KIND_PREFIX}-publish", deliver)
        fired = []
        heard = disc.next_publish(hubs[0])
        heard.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [] and not heard.triggered  # nothing published yet
        disc.publish(edge, adv_of(edge))
        sim.run()
        assert len(delivered) == 1 and delivered[0] > 1.0
        assert fired == delivered
        # ... and the index holds the advert by then
        assert hubs[0].cache.query(sim.now, ADV_SERVICE)

    def test_two_waiters_on_one_peer_share_one_publish(self, strategy):
        sim, disc, hubs, edge = build(strategy)
        first, second = disc.next_publish(hubs[0]), disc.next_publish(hubs[0])
        disc.publish(edge, adv_of(edge))
        sim.run()
        assert first.processed and second.processed

    def test_a_waiter_ignores_a_publish_to_another_peer(self, strategy):
        sim, disc, hubs, edge = build(strategy)
        elsewhere = disc.next_publish(hubs[1])
        disc.publish(edge, adv_of(edge))  # lands on hub-0
        sim.run()
        assert not elsewhere.triggered

    def test_a_second_wait_needs_a_second_publish(self, strategy):
        sim, disc, hubs, edge = build(strategy)
        first = disc.next_publish(hubs[0])
        disc.publish(edge, adv_of(edge))
        sim.run()
        assert first.processed
        again = disc.next_publish(hubs[0])
        sim.run()
        assert not again.triggered
        disc.publish(edge, adv_of(edge))  # the keep-alive re-publish
        sim.run()
        assert again.processed

    def test_nobody_listening_leaves_nothing_behind(self, strategy):
        sim, disc, hubs, edge = build(strategy)
        disc.publish(edge, adv_of(edge))
        sim.run()
        assert disc._heard == {}
        disc.next_publish(hubs[0])
        disc.publish(edge, adv_of(edge))
        sim.run()
        assert disc._heard == {}  # popped, not emptied in place


def test_flooding_has_no_publish_message_to_wait_for():
    sim = Simulator(seed=3)
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = FloodingDiscovery()
    peers = [Peer(f"peer-{i}", net) for i in range(3)]
    for peer in peers:
        disc.attach(peer)
    net.random_overlay(degree=2)
    heard = disc.next_publish(peers[0])
    disc.publish(peers[1], adv_of(peers[1]))
    sim.run()
    assert not heard.triggered


# ---------------------------------------------------------------------------
# wait_for_workers on real sockets
# ---------------------------------------------------------------------------


def addresses_for(n_workers):
    ports = _free_ports(1 + n_workers, HOST)
    addresses = {"portal": (HOST, ports[0]), "controller": (HOST, ports[0])}
    for i, port in enumerate(ports[1:]):
        addresses[f"worker-{i}"] = (HOST, port)
    return addresses


def pending_events(node):
    """What is left in the kernel queue: at the parent ~1 000 dead
    ``_close`` timers (one per poll, and the kernel cannot cancel)."""
    return len(node.sim._queue)


class TestWaitForWorkers:
    def test_a_late_worker_is_admitted_by_its_publish_not_by_polling(self):
        addresses = addresses_for(1)
        node = ControllerNode(addresses["portal"][1], addresses, seed=1)
        procs = []
        try:
            # The volunteer turns up 0.3 s into the wait.
            node.sim.timeout(0.3).callbacks.append(lambda ev: procs.append(
                launch_worker("worker-0", addresses["worker-0"][1], addresses)
            ))
            wall, cpu = time.perf_counter(), time.process_time()
            found = node.wait_for_workers(1, deadline_s=60.0)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            assert found == ["worker-0"]
            assert wall > 0.3
            # nobody -> sleep -> the advert -> 1 of 1
            assert node.discovery.stats.queries <= 2
            assert cpu <= 0.10 * wall
            # at most: 2 queries' window timers and 2 turns' deadline timeouts
            assert pending_events(node) <= 6
            node.shutdown_workers(found)
        finally:
            node.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except Exception:
                    proc.kill()
                    proc.wait(timeout=10.0)

    def test_nobody_comes_the_deadline_raises_and_names_who_is_missing(self):
        addresses = addresses_for(2)
        node = ControllerNode(addresses["portal"][1], addresses, seed=1)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError) as err:
                node.wait_for_workers(1, deadline_s=0.4)
            elapsed = time.monotonic() - started
            assert 0.4 <= elapsed <= 0.8
            assert node.discovery.stats.queries <= 2
            message = str(err.value)
            assert "0/1" in message and "within 0.4s" in message
            assert message.endswith("found [], never heard from ['worker-0', 'worker-1']")
            assert pending_events(node) <= 4
        finally:
            node.close()

    def test_a_publish_between_listening_and_waiting_is_not_missed(self):
        # The race the order of the two lines in wait_for_workers closes:
        # the advert lands after next_publish() and before the wait.
        addresses = addresses_for(1)
        node = ControllerNode(addresses["portal"][1], addresses, seed=1)
        try:
            advert = Advertisement.make(ADV_SERVICE, "svc-worker-0", "worker-0")
            heard = node.discovery.next_publish(node.portal)
            assert node.discover_workers() == []
            node.discovery._on_publish(
                Message("central-publish", "worker-0", "portal", payload=advert)
            )
            started = time.monotonic()
            node.sim.run(until=node.sim.any_of([heard, node.sim.timeout(30.0)]))
            assert time.monotonic() - started < 1.0
            assert heard.processed
        finally:
            node.close()

