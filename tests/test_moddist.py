"""Tests for the module distribution fast path (E18).

Covers the mechanisms layered on the seed mobility protocol:
content-addressed packages, fixed-size chunked transfers, and
cooperative peer replicas (advertise / resolve / serve / fall back),
plus the lead-first deploy that makes the first workers replicas before
the rest of the fleet asks for their modules.
"""

import numpy as np

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.core import global_registry
from repro.mobility import ModuleCache, ModulePackage, ModuleRepository, ModuleSettings
from repro.mobility.repository import content_digest
from repro.p2p import CentralIndexDiscovery, Peer, SimNetwork
from repro.p2p.network import chunk_sizes
from repro.simkernel import Simulator


def repo_pair(repo_kwargs=None, cache_kwargs=None):
    """Portal + one device, no discovery (the repository-only protocol)."""
    sim = Simulator(seed=7)
    net = SimNetwork(sim, jitter_fraction=0.0)
    portal = Peer("portal", net)
    device = Peer("device", net)
    repo = ModuleRepository(portal, global_registry(), **(repo_kwargs or {}))
    cache = ModuleCache(device, "portal", **(cache_kwargs or {}))
    return sim, net, repo, cache


def replica_grid(n_devices=2, cache_kwargs=None):
    """Portal (repository + central index) and ``n_devices`` replica caches."""
    sim = Simulator(seed=7)
    net = SimNetwork(sim, jitter_fraction=0.0)
    portal = Peer("portal", net)
    disc = CentralIndexDiscovery()
    disc.attach(portal)
    disc.set_index(portal)
    repo = ModuleRepository(portal, global_registry())
    caches = []
    for i in range(n_devices):
        peer = Peer(f"device{i}", net)
        disc.attach(peer)
        caches.append(
            ModuleCache(
                peer, "portal", discovery=disc,
                modules=ModuleSettings(module_replicas=1),
                **(cache_kwargs or {}),
            )
        )
    return sim, net, repo, caches


class TestContentAddress:
    def test_digest_is_deterministic(self):
        assert content_digest("FFT", "1.0", 20_000) == content_digest(
            "FFT", "1.0", 20_000
        )

    def test_digest_changes_with_identity(self):
        base = content_digest("FFT", "1.0", 20_000)
        assert content_digest("FFT", "2.0", 20_000) != base
        assert content_digest("FFT", "1.0", 20_001) != base
        assert content_digest("Wave", "1.0", 20_000) != base

    def test_package_autofills_digest(self):
        pkg = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        assert pkg.digest == content_digest("FFT", "1.0", 20_000)

    def test_same_identity_same_content_everywhere(self):
        """Two builds of the same release are interchangeable replicas."""
        a = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        b = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        assert a.digest == b.digest


class TestChunkedTransfer:
    def test_chunk_sizes_cover_payload(self):
        sizes = chunk_sizes(100_000, 64_000)
        assert sum(sizes) == 100_000
        assert all(s <= 64_000 for s in sizes)
        assert chunk_sizes(1_000, 64_000) == [1_000]

    def test_chunked_repo_transfer_reassembles(self):
        sim, net, repo, cache = repo_pair(repo_kwargs={"chunk_bytes": 8_000})
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.name == "Wave"
        assert repo.stats.chunks_sent == 3  # 20 KB in 8 KB chunks
        assert cache.stats.bytes_downloaded == pkg.code_size
        assert list(cache._cached) == ["Wave"]

    def test_small_package_is_not_chunked(self):
        sim, net, repo, cache = repo_pair(repo_kwargs={"chunk_bytes": 64_000})
        sim.run(until=cache.ensure("Wave"))
        assert repo.stats.chunks_sent == 0


class TestPeerReplicas:
    def test_replica_serves_second_device(self):
        sim, net, repo, (c0, c1) = replica_grid()
        first = sim.run(until=c0.ensure("Wave"))
        second = sim.run(until=c1.ensure("Wave"))
        assert second.digest == first.digest
        assert c1.stats.peer_fetches == 1
        assert c0.stats.peer_serves == 1
        assert c0.stats.bytes_served == first.code_size
        assert repo.stats.packages_served == 1  # the portal shipped bytes once

    def test_replica_miss_falls_back_to_repository(self):
        sim, net, repo, (c0, c1) = replica_grid()
        sim.run(until=c0.ensure("Wave"))
        # The advertisement outlives the content: stale replica pointer.
        del c0._cached["Wave"]
        pkg = sim.run(until=c1.ensure("Wave"))
        assert pkg.name == "Wave"
        assert c0.stats.peer_serve_misses == 1
        assert c1.stats.peer_fallbacks == 1
        assert repo.stats.packages_served == 2

    def test_remote_requester_parks_on_inflight_download(self):
        sim, net, repo, cache = repo_pair()
        b = Peer("b", net)
        got = []
        b.on("module-package", lambda m: got.append(m.payload))
        ev = cache.ensure("Wave")
        sim.call_at(
            0.05,
            lambda: b.send(
                "device", "module-peer-fetch",
                payload=("b", 999, "Wave", None), size_bytes=96,
            ),
        )
        pkg = sim.run(until=ev)
        sim.run()  # drain: the parked requester is served after absorb
        assert cache.stats.remote_coalesced == 1
        assert cache.stats.peer_serves == 1
        assert cache.stats.bytes_served == pkg.code_size
        assert got and got[0][2].digest == pkg.digest

    def test_offline_requester_does_not_break_serving(self):
        sim, net, repo, (c0, c1) = replica_grid()
        sim.run(until=c0.ensure("Wave"))
        # A direct peer-fetch for content c0 never had: polite decline.
        c1.peer.send(
            "device0", "module-peer-fetch",
            payload=("device1", 999, "FFT", "bogusdigest"), size_bytes=96,
        )
        sim.run()
        assert c0.stats.peer_serve_misses == 1


def deploy_log(replicas, n_workers=4):
    """Run fig. 1 on a replica grid; return it with ``(what, worker, t)``
    for each ``triana-deploy`` sent and each ``deploy-ack`` received."""
    grid = ConsumerGrid(n_workers=n_workers, seed=11, module_replicas=replicas)
    sim, net, log = grid.sim, grid.transport, []
    send = net.send

    def logged_send(message):
        if message.kind == "triana-deploy":
            log.append(("deploy", message.dst, sim.now))
        return send(message)

    on_ack = grid.controller.deployer._on_ack

    def logged_ack(message):
        log.append(("ack", message.src, sim.now))
        on_ack(message)

    net.send = logged_send
    grid.controller_peer.replace_handler("deploy-ack", logged_ack)
    report = grid.run(fig1_grouped(), iterations=6, probes=("Accum",))
    return grid, report, log


class TestLeadFirstDeploy:
    def test_lead_acks_arrive_before_any_other_deploy_is_sent(self):
        grid, _report, log = deploy_log(replicas=2)
        leads = {"worker-0", "worker-1"}
        deploys = [(w, t) for what, w, t in log if what == "deploy"]
        assert sorted(w for w, _t in deploys) == sorted(grid.workers)
        first_other = min(t for w, t in deploys if w not in leads)
        lead_acks = [t for what, w, t in log if what == "ack" and w in leads]
        assert len(lead_acks) == 2
        assert max(lead_acks) <= first_other
        # ...and in message order, not just in time.
        kinds = [(what, w in leads) for what, w, _t in log]
        assert kinds.index(("deploy", False)) > max(
            i for i, k in enumerate(kinds) if k == ("ack", True)
        )

    def test_a_lead_worker_fetches_each_unit_once(self):
        grid, _report, _log = deploy_log(replicas=2)
        for name in ("worker-0", "worker-1"):
            cache = grid.workers[name].cache
            assert cache.stats.fetches == len(cache._cached) > 0
            assert cache.stats.peer_fetches == 0  # the portal fed the leads

    def test_no_leads_and_all_leads_deploy_at_once(self):
        for replicas in (0, 4, 9):
            _grid, _report, log = deploy_log(replicas=replicas)
            # Every deploy goes out at once, before any ack comes back.
            assert [what for what, _w, _t in log[:4]] == ["deploy"] * 4
            assert len({t for what, _w, t in log if what == "deploy"}) == 1

    def test_replica_grid_matches_repository_only_run(self):
        """Replicas are a transport optimisation: results are identical."""
        g0, r0, _ = deploy_log(replicas=0)
        g2, r2, _ = deploy_log(replicas=2)
        assert len(r2.probe_values["Accum"]) == 6
        for a, b in zip(r0.probe_values["Accum"], r2.probe_values["Accum"]):
            np.testing.assert_array_equal(a.data, b.data)
        # The portal shipped fewer full packages, because the workers
        # deployed after the leads pull from them.
        assert (
            g2.repository.stats.packages_served
            < g0.repository.stats.packages_served
        )
        workers = list(g2.workers.values())
        assert sum(s.cache.stats.peer_fetches for s in workers) > 0

    def test_zero_replicas_is_the_seed_protocol(self):
        grid = ConsumerGrid(n_workers=2, seed=12, module_replicas=0)
        grid.run(fig1_grouped(), iterations=2)
        assert grid.repository.stats.head_requests == 0
        for service in grid.workers.values():
            assert service.cache.stats.peer_fetches == 0
