"""Distribution-policy subsystem tests: registry, chunked farm, multi-group.

Covers the pluggable scheduler surface: the :class:`PolicyRegistry`,
third-party policies travelling from XML through a full grid run, the
batching ``chunked`` farm (result parity + message economics + churn),
per-controller deployment-id isolation, multi-group staged runs, and
:class:`WeightedBySpeed` weight re-normalisation under churn.
"""

import numpy as np
import pytest

from repro import ConsumerGrid, TaskGraph
from repro.core import LocalEngine, graph_from_string, graph_to_string
from repro.core.errors import GraphError
from repro.p2p import LAN_PROFILE
from repro.resources import PoissonChurn
from repro.service import (
    ChunkedFarmPolicy,
    DistributionPolicy,
    ParallelFarmPolicy,
    PipelinePolicy,
    PolicyRegistry,
    SchedulingError,
    global_policy_registry,
    register_policy,
)
from repro.service.placement import WeightedBySpeed


def farm_graph(policy="parallel"):
    """Wave → [FFT] → Grapher with a one-task policy group."""
    g = TaskGraph("farm")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy=policy)
    return g


def two_group_graph(first="parallel", second="chunked"):
    """Wave → [Gain]@first → [FFT]@second → Power → Grapher."""
    g = TaskGraph("two-groups")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("Gain", "Gain", factor=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gain"), ("Gain", "FFT"), ("FFT", "Power"),
                 ("Power", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("Stage1", ["Gain"], policy=first)
    g.group_tasks("Stage2", ["FFT"], policy=second)
    return g


def slow_grid(**kw):
    """Compute-dominated grid (LAN links, slow CPUs) for churn tests."""
    defaults = dict(
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    defaults.update(kw)
    return ConsumerGrid(**defaults)


class TestPolicyRegistry:
    def test_builtins_registered(self):
        registry = global_policy_registry()
        assert set(registry.names()) >= {"parallel", "p2p", "chunked"}
        assert registry.lookup("parallel").cls is ParallelFarmPolicy
        assert registry.lookup("p2p").cls is PipelinePolicy
        assert registry.lookup("chunked").cls is ChunkedFarmPolicy

    def test_create_returns_fresh_instances(self):
        registry = global_policy_registry()
        a, b = registry.create("parallel"), registry.create("parallel")
        assert isinstance(a, ParallelFarmPolicy)
        assert a is not b

    def test_descriptors_carry_summaries(self):
        for descriptor in global_policy_registry():
            assert descriptor.summary  # first docstring line, non-empty
            assert "\n" not in descriptor.summary

    def test_duplicate_name_rejected(self):
        registry = PolicyRegistry()
        registry.register(ParallelFarmPolicy)
        with pytest.raises(SchedulingError):
            registry.register(ParallelFarmPolicy)

    def test_non_policy_class_rejected(self):
        registry = PolicyRegistry()
        with pytest.raises(SchedulingError):
            registry.register(dict)

    def test_unnamed_policy_rejected(self):
        class Nameless(DistributionPolicy):
            name = ""

        with pytest.raises(SchedulingError):
            PolicyRegistry().register(Nameless)

    def test_unknown_create_rejected(self):
        with pytest.raises(SchedulingError):
            global_policy_registry().create("warp-speed")

    def test_unknown_group_policy_still_rejected(self):
        g = TaskGraph("g")
        g.add_task("Wave", "Wave")
        with pytest.raises(GraphError):
            g.group_tasks("G", ["Wave"], policy="teleport")


class TestThirdPartyPolicy:
    """A custom policy plugs in end-to-end without touching core code."""

    def test_registered_policy_runs_from_xml(self):
        @register_policy
        class QuadBatchPolicy(ChunkedFarmPolicy):
            """Chunked farm with a smaller batch of four iterations."""

            name = "quadbatch"

            def __init__(self):
                super().__init__(chunk_size=4)

        try:
            # The new name is immediately legal in graph construction
            # *and* survives the XML wire format.
            text = graph_to_string(farm_graph(policy="quadbatch"))
            graph = graph_from_string(text)
            assert graph.task("G").policy == "quadbatch"

            grid = ConsumerGrid(n_workers=4, seed=7)
            report = grid.run(graph, iterations=12)
            assert report.policy == "quadbatch"
            assert len(report.group_results) == 12
            kinds = grid.transport.stats.by_kind
            assert 0 < kinds["group-exec"] < 12
        finally:
            global_policy_registry().unregister("quadbatch")

    def test_decorator_returns_class(self):
        @register_policy
        class TransientPolicy(ParallelFarmPolicy):
            """Round-trip decorator check."""

            name = "transient-check"

        try:
            assert TransientPolicy.name == "transient-check"
            assert "transient-check" in global_policy_registry()
        finally:
            global_policy_registry().unregister("transient-check")


class TestChunkedPolicy:
    def test_results_match_parallel(self):
        """Batching changes the envelope count, never the numbers."""
        reports = {}
        kinds = {}
        for policy in ("parallel", "chunked"):
            grid = ConsumerGrid(n_workers=4, seed=11)
            reports[policy] = grid.run(farm_graph(policy), iterations=12)
            kinds[policy] = dict(grid.transport.stats.by_kind)
        par, chk = reports["parallel"], reports["chunked"]
        assert len(chk.group_results) == len(par.group_results) == 12
        for a, b in zip(par.group_results, chk.group_results):
            np.testing.assert_allclose(a[0].data, b[0].data)
        # parallel ships one exec envelope per iteration; chunked ships
        # the same iterations in fewer messages of the same kind.
        assert kinds["parallel"]["group-exec"] == 12
        assert 0 < kinds["chunked"]["group-exec"] < 12

    def test_chunked_completes_under_churn(self):
        """Recovery re-dispatches batched work as singles and finishes."""
        grid = slow_grid(
            n_workers=4, seed=74, retry_timeout=3.0, retry_interval=1.0
        )
        grid.install_availability(
            lambda pid: PoissonChurn(mean_uptime=4.0, mean_downtime=2.0,
                                     stream=f"churn-{pid}")
        )
        report = grid.run(farm_graph("chunked"), iterations=12,
                          run_until=2_000.0)
        assert len(report.group_results) == 12


class TestPerControllerDeploymentIds:
    def test_back_to_back_grids_report_identically(self):
        """Deployment ids are per-controller, not process-global.

        Two same-seed grids in one process must produce byte-identical
        reports — including the ``dep-N`` placement keys, which a
        module-global counter would keep incrementing across grids.
        """
        reports = []
        for _ in range(2):
            grid = ConsumerGrid(n_workers=3, seed=21)
            reports.append(grid.run(farm_graph(), iterations=6))
        first, second = reports
        assert first.placements == second.placements
        assert sorted(first.placements) == ["dep-1", "dep-2", "dep-3"]
        assert first.makespan == second.makespan
        assert first.deploy_time == second.deploy_time


class TestMultiGroupRuns:
    def test_two_farms_one_run(self):
        graph = two_group_graph("parallel", "chunked")
        grid = ConsumerGrid(n_workers=4, seed=31)
        report = grid.run(graph, iterations=8, probes=("Power",))
        assert report.policy == "parallel+chunked"
        assert len(report.probe_values["Power"]) == 8
        # Both groups were deployed: 4 replicas each on 4 workers.
        assert len(report.placements) == 8

        local = LocalEngine(two_group_graph("parallel", "chunked"))
        probe = local.attach_probe("Power")
        local.run(8)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_pipeline_and_farm_mix(self):
        """A p2p chain and a farm coexist in one staged run."""
        g = TaskGraph("mixed")
        g.add_task("Wave", "Wave", frequency=32.0)
        g.add_task("Gain", "Gain", factor=2.0)
        g.add_task("FFT", "FFT")
        g.add_task("Power", "PowerSpectrum")
        g.add_task("Grapher", "Grapher")
        for a, b in [("Wave", "Gain"), ("Gain", "FFT"), ("FFT", "Power"),
                     ("Power", "Grapher")]:
            g.connect(a, 0, b, 0)
        g.group_tasks("Chain", ["Gain", "FFT"], policy="p2p")
        g.group_tasks("Farm", ["Power"], policy="parallel")

        grid = ConsumerGrid(n_workers=4, seed=32)
        report = grid.run(g, iterations=6)
        assert report.policy == "p2p+parallel"
        assert len(report.group_results) == 6

    def test_multi_group_xml_round_trip(self):
        graph = two_group_graph("p2p", "chunked")
        parsed = graph_from_string(graph_to_string(graph))
        assert {g.name: g.policy for g in parsed.groups()} == {
            "Stage1": "p2p",
            "Stage2": "chunked",
        }
        # The parsed graph runs distributed exactly like the original.
        grid = ConsumerGrid(n_workers=3, seed=33)
        report = grid.run(parsed, iterations=4)
        assert report.policy == "p2p+chunked"
        assert len(report.group_results) == 4


class TestWeightedBySpeedChurn:
    def test_mark_offline_excludes_replica(self):
        policy = WeightedBySpeed()
        policy.setup([4e9, 1e9])
        assert policy.choose(0) == 0  # fastest drains first
        policy.mark_offline(0)
        picks = {policy.choose(i) for i in range(1, 5)}
        assert picks == {1}
        policy.mark_online(0)
        assert 0 in {policy.choose(i) for i in range(5, 9)}

    def test_all_offline_falls_back_to_everyone(self):
        policy = WeightedBySpeed()
        policy.setup([2e9, 2e9])
        policy.mark_offline(0)
        policy.mark_offline(1)
        assert policy.choose(0) in (0, 1)

    def test_out_of_range_mark_ignored(self):
        policy = WeightedBySpeed()
        policy.setup([2e9])
        policy.mark_offline(5)  # stale suspicion after migration: no-op
        assert policy.choose(0) == 0

    def test_weighted_dispatch_completes_under_churn(self):
        """Weights re-normalise over the surviving fleet mid-run."""
        grid = slow_grid(
            n_workers=4, seed=77, retry_timeout=3.0, retry_interval=1.0
        )
        grid.install_availability(
            lambda pid: PoissonChurn(mean_uptime=4.0, mean_downtime=2.0,
                                     stream=f"churn-{pid}")
        )
        report = grid.run(farm_graph("parallel"), iterations=12,
                          run_until=2_000.0, dispatch="weighted")
        assert len(report.group_results) == 12
