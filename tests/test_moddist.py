"""Tests for the module distribution fast path (E18).

Covers the three mechanisms layered on the seed mobility protocol:
content-addressed packages with digest revalidation, fixed-size chunked
transfers, and cooperative peer replicas (advertise / resolve / serve /
fall back), plus the service-layer preseed plumbing that places replicas
at deployment time.
"""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.core import global_registry
from repro.mobility import ModuleCache, ModulePackage, ModuleRepository, ModuleSettings
from repro.mobility.repository import content_digest
from repro.p2p import CentralIndexDiscovery, Peer, SimNetwork
from repro.p2p.network import chunk_sizes
from repro.service.deploy import merge_preseed_plans
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
        assert cache.cached_names() == ["Wave"]

    def test_small_package_is_not_chunked(self):
        sim, net, repo, cache = repo_pair(repo_kwargs={"chunk_bytes": 64_000})
        sim.run(until=cache.ensure("Wave"))
        assert repo.stats.chunks_sent == 0


class TestDigestRevalidation:
    def test_second_fetch_revalidates_instead_of_redownloading(self):
        sim, net, repo, cache = repo_pair(cache_kwargs={"modules": ModuleSettings(module_replicas=1)})
        pkg = sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("Wave"))
        assert cache.stats.revalidations == 1
        assert repo.stats.revalidations == 1
        assert repo.stats.packages_served == 1
        assert cache.stats.bytes_downloaded == pkg.code_size  # paid once

    def test_version_bump_defeats_revalidation(self):
        sim, net, repo, cache = repo_pair(cache_kwargs={"modules": ModuleSettings(module_replicas=1)})
        sim.run(until=cache.ensure("Wave"))
        repo.publish_new_version("Wave", "2.0")
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.version == "2.0"
        assert cache.stats.revalidations == 0
        assert repo.stats.packages_served == 2

    def test_head_probe_revalidates_on_replica_path(self):
        sim, net, repo, caches = replica_grid(n_devices=1)
        cache = caches[0]
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("Wave"))
        assert repo.stats.head_requests == 2
        assert repo.stats.packages_served == 1  # second round was head-only
        assert cache.stats.revalidations == 1


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
        c0.release("Wave")
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


class TestPreseedPlumbing:
    def test_merge_preseed_plans_unions_per_worker(self):
        merged = merge_preseed_plans(
            [
                [("w1", ("FFT",)), ("w2", ("FFT",))],
                [("w1", ("GaussianNoise",)), ("w3", ())],
            ]
        )
        assert merged == [
            ("w1", ("FFT", "GaussianNoise")),
            ("w2", ("FFT",)),
        ]

    def test_preseeded_grid_matches_repository_only_run(self):
        """Replicas are a transport optimisation: results are identical."""

        def run(replicas):
            grid = ConsumerGrid(n_workers=4, seed=11, module_replicas=replicas)
            report = grid.run(fig1_grouped(), iterations=6, probes=("Accum",))
            return grid, report

        g0, r0 = run(0)
        g2, r2 = run(2)
        assert len(r2.probe_values["Accum"]) == 6
        for a, b in zip(r0.probe_values["Accum"], r2.probe_values["Accum"]):
            np.testing.assert_array_equal(a.data, b.data)
        # The portal shipped fewer full packages...
        assert (
            g2.repository.stats.packages_served
            < g0.repository.stats.packages_served
        )
        # ...because pre-seeded workers revalidate and the rest pull from
        # replicas.
        workers = list(g2.workers.values())
        assert sum(s.stats.preseeds for s in workers) == 2
        assert sum(s.cache.stats.revalidations for s in workers) > 0
        assert sum(s.cache.stats.peer_fetches for s in workers) > 0

    def test_zero_replicas_is_the_seed_protocol(self):
        grid = ConsumerGrid(n_workers=2, seed=12, module_replicas=0)
        grid.run(fig1_grouped(), iterations=2)
        assert grid.repository.stats.head_requests == 0
        for service in grid.workers.values():
            assert service.stats.preseeds == 0
            assert service.cache.stats.peer_fetches == 0
