"""Failure-injection tests: the consumer network misbehaving on purpose."""

import pytest

from repro import ConsumerGrid, TaskGraph
from repro.analysis import fig1_grouped
from repro.p2p import LAN_PROFILE
from repro.resources import PoissonChurn
from repro.service import DeploymentError
from tests.test_service_run import slow_grid, stateless_pipeline


class TestDeployFailures:
    def test_portal_offline_fails_deployment(self):
        """Workers cannot fetch code when the repository portal is down."""
        grid = ConsumerGrid(n_workers=2, seed=71)
        for svc in grid.workers.values():
            svc.cache.fetch_timeout = 5.0
        workers = grid.discover_workers()  # discovered before the outage
        grid.portal.go_offline()
        grid.controller.deploy_timeout = 30.0
        done = grid.controller.run_distributed(fig1_grouped(), 2, workers, ())
        with pytest.raises(DeploymentError):
            grid.sim.run(until=done)

    def test_portal_back_online_recovers_next_run(self):
        grid = ConsumerGrid(n_workers=2, seed=72)
        for svc in grid.workers.values():
            svc.cache.fetch_timeout = 5.0
        workers = grid.discover_workers()
        grid.portal.go_offline()
        grid.controller.deploy_timeout = 30.0
        done = grid.controller.run_distributed(fig1_grouped(), 2, workers, ())
        with pytest.raises(DeploymentError):
            grid.sim.run(until=done)
        # Portal returns; a fresh run succeeds.
        grid.portal.go_online()
        report = grid.run(fig1_grouped(), iterations=2)
        assert len(report.group_results) == 2

    def test_worker_offline_during_deploy_times_out(self):
        grid = ConsumerGrid(n_workers=2, seed=73)
        grid.controller.deploy_timeout = 20.0
        grid.worker_peers["worker-1"].go_offline()
        done = grid.controller.run_distributed(
            fig1_grouped(), 2, ["worker-0", "worker-1"], ()
        )
        with pytest.raises(DeploymentError):
            grid.sim.run(until=done)


class TestChurnUnderAvailabilityModels:
    def test_farm_completes_under_poisson_churn(self):
        """Workers blink in and out; retry keeps the farm live."""
        grid = slow_grid(
            n_workers=4, seed=74, retry_timeout=3.0, retry_interval=1.0
        )
        grid.install_availability(
            lambda pid: PoissonChurn(mean_uptime=4.0, mean_downtime=2.0,
                                     stream=f"churn-{pid}")
        )
        report = grid.run(stateless_pipeline(), iterations=12,
                          run_until=2_000.0)
        assert len(report.group_results) == 12

    def test_availability_stats_recorded(self):
        grid = slow_grid(n_workers=3, seed=75)
        grid.install_availability(
            lambda pid: PoissonChurn(mean_uptime=10.0, mean_downtime=10.0)
        )
        grid.sim.run(until=500.0)
        for model in grid.availability.values():
            assert model.stats.availability == pytest.approx(0.5, abs=0.15)


class TestLateAndDuplicateTraffic:
    def test_duplicate_results_ignored(self):
        """A redispatched iteration may return twice; only one counts."""
        grid = slow_grid(n_workers=2, seed=76, retry_timeout=0.2,
                         retry_interval=0.1)
        # Aggressive retry: duplicates are likely because the 'lost'
        # worker is actually alive, just slow to answer.
        report = grid.run(stateless_pipeline(), iterations=6)
        assert len(report.group_results) == 6

    def test_exec_for_unknown_deployment_dropped(self):
        grid = ConsumerGrid(n_workers=1, seed=77)
        worker = grid.worker_peers["worker-0"]
        grid.controller_peer.send(
            "worker-0", "group-exec", payload=("dep-bogus", [(0, [])]), size_bytes=64
        )
        grid.sim.run()  # must not raise
        assert grid.workers["worker-0"].stats.iterations == 0

    def test_pipe_data_for_unknown_pipe_dropped(self):
        grid = ConsumerGrid(n_workers=1, seed=78)
        grid.controller_peer.send(
            "worker-0", "pipe-data", payload=("ghost-pipe", 1), size_bytes=64
        )
        grid.sim.run()  # silently dropped

    def test_unknown_message_kind_dropped(self):
        grid = ConsumerGrid(n_workers=1, seed=79)
        grid.controller_peer.send("worker-0", "gibberish", payload=None)
        grid.sim.run()


class TestRunUntilHorizon:
    def test_run_until_raises_when_unfinished(self):
        grid = slow_grid(n_workers=1, seed=80)
        g = TaskGraph("heavy")
        g.add_task("Wave", "Wave", samples=8192)
        g.add_task("FFT", "FFT")
        g.add_task("Grapher", "Grapher")
        g.connect("Wave", 0, "FFT", 0)
        g.connect("FFT", 0, "Grapher", 0)
        g.group_tasks("G", ["FFT"], policy="parallel")
        with pytest.raises(TimeoutError):
            grid.run(g, iterations=32, run_until=1.0)


class TestDiscoveryDegradation:
    def test_min_cpu_filter_excludes_slow_workers(self):
        from repro.p2p import NodeProfile

        slow = NodeProfile(cpu_flops=5e8)
        grid = ConsumerGrid(n_workers=2, seed=81, worker_profile=slow)
        grid.add_cluster_worker("big", profile=LAN_PROFILE)  # 2 GHz default
        found = grid.discover_workers(min_cpu_flops=1e9)
        assert found == ["big"]

    def test_discovery_excludes_nothing_by_default(self):
        grid = ConsumerGrid(n_workers=3, seed=82)
        assert len(grid.discover_workers()) == 3
