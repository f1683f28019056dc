"""Integration tests: controller + workers over the simulated grid."""

import numpy as np
import pytest

from repro import ConsumerGrid, TaskGraph
from repro.analysis.workloads import pipeline_graph
from repro.core import LocalEngine
from repro.core.registry import UnitRegistry
from repro.core.toolbox.display import Grapher
from repro.core.toolbox.signal import Wave
from repro.core.types import SampleSet
from repro.core.units import Unit
from repro.mobility import SandboxPolicy
from repro.service import DeploymentError, SchedulingError
from repro.simkernel import SimTimeError


def fig1_grouped(policy="parallel", members=("Gaussian", "FFT")):
    g = TaskGraph("fig1")
    g.add_task("Wave", "Wave", frequency=64.0)
    g.add_task("Gaussian", "GaussianNoise", sigma=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Accum", "AccumStat")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gaussian"), ("Gaussian", "FFT"), ("FFT", "Power"),
                 ("Power", "Accum"), ("Accum", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("GroupTask", list(members), policy=policy)
    return g


def slow_grid(**kw):
    """A grid where compute dominates transfers: LAN links, slow CPUs.

    Used by tests that need runs to take appreciable simulated time
    (speedup curves, churn injection mid-run).
    """
    from repro.p2p import LAN_PROFILE

    defaults = dict(
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    defaults.update(kw)
    return ConsumerGrid(**defaults)


def stateless_pipeline(policy="parallel"):
    """Wave → [Gain → FFT] → Power → Grapher with a stateless group."""
    g = TaskGraph("stateless")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("Gain", "Gain", factor=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gain"), ("Gain", "FFT"), ("FFT", "Power"),
                 ("Power", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("GroupTask", ["Gain", "FFT"], policy=policy)
    return g


class TestRunHorizon:
    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_a_horizon_that_is_not_a_finite_time_is_refused_before_dealing(self, until):
        # NaN used to raise a misleading "did not finish by t=nan"; inf
        # finished but left the clock at inf, so the next run failed.
        grid = ConsumerGrid(n_workers=2, seed=1)
        graph = pipeline_graph(2, samples=16)
        with pytest.raises(SimTimeError, match=repr(until)):
            grid.run(graph, 2, run_until=until)
        assert grid.sim.now < 1.0
        report = grid.run(graph, 2, run_until=grid.sim.now + 1e5)
        assert len(report.group_results) == 2


class TestParallelPolicy:
    def test_results_complete_and_ordered(self):
        grid = ConsumerGrid(n_workers=4, seed=1)
        report = grid.run(fig1_grouped(), iterations=12, probes=("Accum",))
        assert report.iterations == 12
        assert len(report.group_results) == 12
        assert len(report.probe_values["Accum"]) == 12
        assert report.policy == "parallel"
        assert report.redispatches == 0

    def test_distributed_matches_local_for_stateless_group(self):
        """Farming a stateless group must not change any payload."""
        graph = stateless_pipeline()
        grid = ConsumerGrid(n_workers=3, seed=2)
        report = grid.run(graph, iterations=6, probes=("Power",))

        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(6)

        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_work_spread_across_workers(self):
        grid = ConsumerGrid(n_workers=4, seed=3)
        grid.run(fig1_grouped(), iterations=8)
        iteration_counts = [w.stats.iterations for w in grid.workers.values()]
        assert iteration_counts == [2, 2, 2, 2]

    def test_more_workers_reduce_makespan(self):
        def makespan(k):
            grid = slow_grid(n_workers=k, seed=4)
            g = TaskGraph("heavy")
            g.add_task("Wave", "Wave", samples=8192)
            g.add_task("FFT", "FFT")
            g.add_task("Grapher", "Grapher")
            g.connect("Wave", 0, "FFT", 0)
            g.connect("FFT", 0, "Grapher", 0)
            g.group_tasks("G", ["FFT"], policy="parallel")
            return grid.run(g, iterations=16).makespan

        m1, m4 = makespan(1), makespan(4)
        assert m4 < 0.4 * m1  # near-linear speedup on a compute-bound farm

    def test_deploy_downloads_modules_on_demand(self):
        grid = ConsumerGrid(n_workers=2, seed=5)
        grid.run(fig1_grouped(), iterations=2)
        for service in grid.workers.values():
            assert service.cache.stats.fetches >= 2  # Gaussian + FFT
            assert set(service.cache.cached_names()) >= {"GaussianNoise", "FFT"}
            # Wave/Power/Accum stay at the controller — never downloaded.
            assert "Wave" not in service.cache.cached_names()

    def test_no_workers_rejected(self):
        grid = ConsumerGrid(n_workers=1, seed=6)
        with pytest.raises(SchedulingError):
            grid.sim.run(
                until=grid.controller.run_distributed(fig1_grouped(), 2, [], ())
            )

    def test_local_fallback_without_policy_group(self):
        grid = ConsumerGrid(n_workers=2, seed=7)
        g = fig1_grouped(policy="parallel")
        g.task("GroupTask").policy = "none"
        report = grid.run(g, iterations=5, probes=("Accum",))
        assert report.policy == "none"
        assert len(report.probe_values["Accum"]) == 5
        assert report.placements == {}

    def test_bad_iterations(self):
        grid = ConsumerGrid(n_workers=1, seed=8)
        with pytest.raises(SchedulingError):
            grid.controller.run_distributed(fig1_grouped(), 0, ["worker-0"], ())


class TestP2PPolicy:
    def test_chain_executes_and_returns_in_order(self):
        graph = stateless_pipeline(policy="p2p")
        grid = ConsumerGrid(n_workers=2, seed=9)
        report = grid.run(graph, iterations=6, probes=("Power",))
        assert len(report.group_results) == 6
        assert report.policy == "p2p"
        # Stage placement: Gain and FFT on different peers.
        assert len(set(report.placements.values())) == 2

    def test_chain_matches_local(self):
        graph = stateless_pipeline(policy="p2p")
        grid = ConsumerGrid(n_workers=2, seed=10)
        report = grid.run(graph, iterations=4, probes=("Power",))
        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(4)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_stateful_chain_preserves_state(self):
        """AccumStat inside a p2p chain keeps its running state on one peer."""
        g = TaskGraph("stateful-chain")
        g.add_task("Wave", "Wave", frequency=64.0)
        g.add_task("FFT", "FFT")
        g.add_task("Power", "PowerSpectrum")
        g.add_task("Accum", "AccumStat")
        g.add_task("Grapher", "Grapher")
        for a, b in [("Wave", "FFT"), ("FFT", "Power"), ("Power", "Accum"),
                     ("Accum", "Grapher")]:
            g.connect(a, 0, b, 0)
        g.group_tasks("Chain", ["Power", "Accum"], policy="p2p")
        grid = ConsumerGrid(n_workers=2, seed=11)
        report = grid.run(g, iterations=10)
        assert len(report.group_results) == 10
        # Find the worker hosting AccumStat and check its unit state.
        accum_units = [
            dep.engine.units["Accum"]
            for w in grid.workers.values()
            for dep in w.deployments.values()
            if "Accum" in dep.engine.units
        ]
        assert len(accum_units) == 1
        assert accum_units[0].count == 10

    def test_nonlinear_group_rejected_for_p2p(self):
        g = TaskGraph("fan")
        g.add_task("Wave", "Wave")
        g.add_task("N1", "GaussianNoise")
        g.add_task("N2", "GaussianNoise", seed=1)
        g.add_task("Mix", "Mixer")
        g.connect("Wave", 0, "N1", 0)
        g.connect("Wave", 0, "N2", 0)
        g.connect("N1", 0, "Mix", 0)
        g.connect("N2", 0, "Mix", 1)
        g.group_tasks("G", ["N1", "N2", "Mix"], policy="p2p")
        grid = ConsumerGrid(n_workers=3, seed=12)
        done = grid.controller.run_distributed(g, 2, grid.discover_workers(), ())
        with pytest.raises(SchedulingError):
            grid.sim.run(until=done)

    def test_pipelining_overlaps_stages(self):
        """With S stages of equal cost, pipelined makespan ≈ (N+S-1)·t,
        far below the sequential N·S·t."""
        g = TaskGraph("pipe")
        g.add_task("Wave", "Wave", samples=4096)
        g.add_task("A", "LowPass", cutoff=100.0)
        g.add_task("B", "HighPass", cutoff=10.0)
        g.add_task("C", "LowPass", cutoff=200.0)
        g.add_task("Grapher", "Grapher")
        for x, y in [("Wave", "A"), ("A", "B"), ("B", "C"), ("C", "Grapher")]:
            g.connect(x, 0, y, 0)
        g.group_tasks("Chain", ["A", "B", "C"], policy="p2p")
        grid = slow_grid(n_workers=3, seed=13)
        n = 12
        report = grid.run(g, iterations=n)
        per_stage = grid.workers["worker-0"].stats.busy_seconds / max(
            grid.workers["worker-0"].stats.iterations, 1
        )
        sequential = 3 * n * per_stage
        assert report.makespan < 0.7 * sequential


class TestChurnRecovery:
    def test_redispatch_after_worker_loss(self):
        grid = slow_grid(n_workers=3, seed=14, retry_timeout=5.0, retry_interval=1.0)
        graph = stateless_pipeline()
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(graph, 9, workers, ("Power",))
        # Kill one worker shortly after dispatch (each iteration ~0.5 s).
        grid.sim.call_at(0.3, lambda: grid.worker_peers["worker-1"].go_offline())
        report = grid.sim.run(until=done)
        assert len(report.group_results) == 9
        assert report.redispatches >= 1

    def test_results_correct_despite_churn(self):
        grid = slow_grid(n_workers=3, seed=15, retry_timeout=5.0, retry_interval=1.0)
        graph = stateless_pipeline()
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(graph, 6, workers, ("Power",))
        grid.sim.call_at(0.3, lambda: grid.worker_peers["worker-2"].go_offline())
        report = grid.sim.run(until=done)

        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(6)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_worker_returning_online_can_serve_again(self):
        grid = slow_grid(n_workers=2, seed=16, retry_timeout=5.0, retry_interval=1.0)
        graph = stateless_pipeline()
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(graph, 8, workers, ())
        grid.sim.call_at(0.3, lambda: grid.worker_peers["worker-0"].go_offline())
        grid.sim.call_at(3.0, lambda: grid.worker_peers["worker-0"].go_online())
        report = grid.sim.run(until=done)
        assert len(report.group_results) == 8


class TestSandboxIntegration:
    def test_sandbox_denial_fails_deployment(self):
        grid = ConsumerGrid(
            n_workers=2,
            seed=17,
            sandbox=SandboxPolicy(
                certified_only=True, certified_library=frozenset()
            ),
        )
        done = grid.controller.run_distributed(
            fig1_grouped(), 2, grid.discover_workers(), ()
        )
        with pytest.raises(DeploymentError):
            grid.sim.run(until=done)

    def test_certified_library_allows_whitelisted(self):
        grid = ConsumerGrid(
            n_workers=2,
            seed=18,
            sandbox=SandboxPolicy(
                certified_only=True,
                certified_library=frozenset({"GaussianNoise@1.0", "FFT@1.0"}),
            ),
        )
        report = grid.run(fig1_grouped(), iterations=3)
        assert len(report.group_results) == 3


class TestDeployTimeout:
    def test_all_workers_offline_times_out(self):
        grid = ConsumerGrid(n_workers=2, seed=19)
        grid.controller.deploy_timeout = 30.0
        workers = grid.discover_workers()
        for p in grid.worker_peers.values():
            p.go_offline()
        done = grid.controller.run_distributed(fig1_grouped(), 2, workers, ())
        with pytest.raises(DeploymentError):
            grid.sim.run(until=done)


class HeavyAccum(Unit):
    """Running sum of its inputs, shipped as a 256 KiB package."""

    CODE_SIZE = 256 * 1024

    def reset(self):
        self._sum = None

    def process(self, inputs):
        (frame,) = inputs
        self._sum = frame.data.copy() if self._sum is None else self._sum + frame.data
        return [SampleSet(data=self._sum.copy(), sampling_rate=frame.sampling_rate)]


def heavy_accum_chain():
    """Wave → [Acc0 → … → Acc3]@p2p → Grapher; every stage pulls the same
    256 KiB package, so four fetches queue ~32 s on the portal's DSL uplink."""
    registry = UnitRegistry()
    registry.register(Wave, category="signal")
    registry.register(Grapher, category="output")
    registry.register(HeavyAccum, category="heavy")
    g = TaskGraph("slow-fetch", registry=registry)
    g.add_task("Wave", "Wave", frequency=32.0, samples=64)
    stages = [f"Acc{i}" for i in range(4)]
    for prev, name in zip(["Wave"] + stages, stages):
        g.add_task(name, "HeavyAccum")
        g.connect(prev, 0, name, 0)
    g.add_task("Grapher", "Grapher")
    g.connect(stages[-1], 0, "Grapher", 0)
    g.group_tasks("Chain", stages, policy="p2p")
    return g, registry


class TestDeployRetryDuringSlowFetch:
    def test_a_retry_that_overtakes_the_fetch_does_not_deploy_twice(self):
        """The controller re-sends a deploy after ``deploy_timeout / 3``;
        a worker still fetching modules must not start a second engine."""
        graph, registry = heavy_accum_chain()
        grid = ConsumerGrid(
            n_workers=4, seed=3, contention=True, registry=registry, trace=True
        )
        grid.controller.deploy_timeout = 60.0
        report = grid.run(graph, iterations=6)
        assert report.deploy_time > 20.0  # the retry did overtake a fetch
        assert {w: s.stats.deployments for w, s in grid.workers.items()} == {
            f"worker-{i}": 1 for i in range(4)
        }
        deploy_spans = [
            s.attrs["deployment"] for s in grid.sim.tracer.spans
            if s.name == "worker.deploy"
        ]
        assert sorted(deploy_spans) == sorted(report.placements)
        assert not any(s._deploying for s in grid.workers.values())
        local = LocalEngine(heavy_accum_chain()[0])
        probe = local.attach_probe("Acc3")
        local.run(6)
        for (dist,), loc in zip(report.group_results, probe.values):
            np.testing.assert_array_equal(dist.data, loc.data)


class TestCheckpointProtocol:
    def test_controller_can_pull_state(self):
        g = fig1_grouped(members=("Gaussian", "FFT"))
        grid = ConsumerGrid(n_workers=1, seed=20)
        grid.run(g, iterations=4)
        (dep_id,) = list(grid.workers["worker-0"].deployments)
        ev = grid.controller.request_checkpoint("worker-0", dep_id)
        state = grid.sim.run(until=ev)
        assert "Gaussian" in state and "FFT" in state
        assert "rng_state" in state["Gaussian"]
