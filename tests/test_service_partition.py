"""Tests for graph partitioning around the distributed group(s)."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import ConsumerGrid
from repro.core import TaskGraph, Unit, UnitRegistry, global_registry
from repro.core.taskgraph import GraphError
from repro.core.types import SampleSet
from repro.service import find_distributable_groups
from repro.service.partition import StageRouter, partition_stages
from tests.test_core_taskgraph import fig1_graph, label


def grouped():
    g = fig1_graph()
    g.group_tasks("GroupTask", ["Gaussian", "FFT"], policy="parallel")
    return g


class TestFindGroup:
    def test_finds_single_policy_group(self):
        g = grouped()
        assert [grp.name for grp in find_distributable_groups(g)] == ["GroupTask"]

    def test_none_when_no_policy(self):
        g = fig1_graph()
        g.group_tasks("G", ["Gaussian", "FFT"], policy="none")
        assert find_distributable_groups(g) == []


class TestPartition:
    """The paper's one-group cut: zone 0 is upstream of the group, zone 1
    downstream."""

    def test_zones(self):
        part = partition_stages(grouped())
        assert sorted(part.zones[0].tasks) == ["Wave"]
        assert sorted(part.zones[1].tasks) == ["Accum", "Grapher", "Power"]

    def test_boundary_connections(self):
        part = partition_stages(grouped())
        assert [label(c) for c in part.to_group["GroupTask"]] == ["Wave:0->GroupTask:0"]
        assert [label(c) for c in part.from_group["GroupTask"]] == ["GroupTask:0->Power:0"]
        assert part.cross == []

    def test_downstream_internal_connections_preserved(self):
        part = partition_stages(grouped())
        labels = {label(c) for c in part.zones[1].connections}
        assert "Power:0->Accum:0" in labels
        assert "Accum:0->Grapher:0" in labels

    def test_downstream_external_inputs(self):
        part = partition_stages(grouped())
        assert part.zone_external_inputs(1) == [("Power", 0)]

    def test_cross_connection_classified(self):
        g = TaskGraph("cross")
        g.add_task("Wave", "Wave")
        g.add_task("Noise", "GaussianNoise")
        g.add_task("Mix", "Mixer")
        g.connect("Wave", 0, "Noise", 0)
        g.connect("Wave", 0, "Mix", 1)  # bypasses the group
        g.connect("Noise", 0, "Mix", 0)
        g.group_tasks("G", ["Noise"], policy="parallel")
        part = partition_stages(g)
        assert [label(c) for c in part.cross] == ["Wave:0->Mix:1"]
        assert part.zone_external_inputs(1) == [("Mix", 0), ("Mix", 1)]

    def test_group_with_sources_inside(self):
        """A group containing the source has zero external inputs."""
        g = TaskGraph("srcgrp")
        g.add_task("Wave", "Wave")
        g.add_task("FFT", "FFT")
        g.add_task("Power", "PowerSpectrum")
        g.connect("Wave", 0, "FFT", 0)
        g.connect("FFT", 0, "Power", 0)
        g.group_tasks("G", ["Wave", "FFT"], policy="parallel")
        part = partition_stages(g)
        assert part.to_group["G"] == []
        assert sorted(part.zones[0].tasks) == []
        assert sorted(part.zones[1].tasks) == ["Power"]


#: SampleSet units a generated graph draws from: (unit, number of inputs)
_DAG_UNITS = [("Wave", 0), ("Gain", 1), ("LowPass", 1), ("HighPass", 1), ("Mixer", 2)]


@st.composite
def grouped_dags(draw):
    """A random DAG of SampleSet units with 1-3 policy groups, or a
    rejected draw when ``group_tasks`` refuses the cut (or it makes a
    cycle, which the partitioner's topological order would refuse)."""
    n = draw(st.integers(2, 9))
    g = TaskGraph("generated")
    g.add_task("t0", "Wave")
    for i in range(1, n):
        unit, n_in = draw(st.sampled_from(_DAG_UNITS))
        g.add_task(f"t{i}", unit)
        for node in range(n_in):
            g.connect(f"t{draw(st.integers(0, i - 1))}", 0, f"t{i}", node)
    names = sorted(g.tasks)
    members = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=3,
        )
    )
    taken: set[str] = set()
    try:
        for k, group in enumerate(members):
            assume(not taken & set(group))
            taken |= set(group)
            g.group_tasks(f"G{k}", group, policy="parallel")
        g.validate()
    except GraphError:
        assume(False)
    return g


def _reaches(graph: TaskGraph) -> dict[str, set[str]]:
    """Task → every task it feeds, directly or not."""
    succ = {name: set() for name in graph.tasks}
    for c in graph.connections:
        succ[c.src].add(c.dst)
    reach = {}
    for name in graph.tasks:
        seen, frontier = set(), [name]
        while frontier:
            for dst in succ[frontier.pop()] - seen:
                seen.add(dst)
                frontier.append(dst)
        reach[name] = seen
    return reach


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(grouped_dags())
def test_partition_stages_on_generated_graphs(g):
    part = partition_stages(g)
    index = {grp.name: i for i, grp in enumerate(part.groups)}
    assert set(index) == {grp.name for grp in g.groups()}
    local = [name for name in g.tasks if name not in index]

    # every local task is in exactly one zone, the one after the deepest
    # group it depends on (zone 0 when it depends on none)
    reach = _reaches(g)
    for name in local:
        homes = [k for k, zone in enumerate(part.zones) if name in zone.tasks]
        depths = [i for grp, i in index.items() if name in reach[grp]]
        assert homes == [1 + max(depths) if depths else 0]
        assert part.zone_of[name] == homes[0]
    assert sum(len(zone.tasks) for zone in part.zones) == len(local)

    # every connection is classified exactly once; cross only points forward
    zone_edges = [label(c) for zone in part.zones for c in zone.connections]
    classified = (
        zone_edges
        + [label(c) for conns in part.to_group.values() for c in conns]
        + [label(c) for conns in part.from_group.values() for c in conns]
        + [label(c) for c in part.cross]
    )
    assert sorted(classified) == sorted(label(c) for c in g.connections)
    for c in part.cross:
        assert part.zone_of[c.src] < part.zone_of[c.dst]

    for grp in part.groups:
        conns = part.to_group[grp.name]
        assert [c.dst_node for c in conns] == sorted(c.dst_node for c in conns)
        assert len(conns) == grp.num_inputs
        assert part.dispatch_stage[grp.name] <= index[grp.name]


class _Value:
    """A routed payload the test can watch die."""


def fan_out_graph():
    """Wave feeds group A, zone 1 (MixA), group B and zone 2 (MixB)."""
    g = TaskGraph("fan-out")
    g.add_task("Wave", "Wave")
    g.add_task("A", "Gain")
    g.add_task("MixA", "Mixer")
    g.add_task("B", "Mixer")
    g.add_task("MixB", "Mixer")
    for src, dst, node in [
        ("Wave", "A", 0), ("A", "MixA", 0), ("Wave", "MixA", 1),
        ("MixA", "B", 0), ("Wave", "B", 1), ("B", "MixB", 0), ("Wave", "MixB", 1),
    ]:
        g.connect(src, 0, dst, node)
    g.group_tasks("GA", ["A"], policy="parallel")
    g.group_tasks("GB", ["B"], policy="parallel")
    return g


class TestStageRouterHandsValuesOver:
    """The router owes each stashed value to the connections that read its
    endpoint; the last of them takes it out."""

    @staticmethod
    def routed(graph, iteration=0):
        """A router with every endpoint of one iteration stashed, the
        weakrefs to those values, and each declared read as (readers'
        endpoints, thunk)."""
        plan = partition_stages(graph)
        router = StageRouter(plan)
        alive = {}

        def outputs_of(name, n_out):
            values = [_Value() for _ in range(n_out)]
            alive.update({(name, n): weakref.ref(v) for n, v in enumerate(values)})
            return values

        for k, zone in enumerate(plan.zones):
            router.stash_zone(
                k, iteration,
                {t: outputs_of(t, task.num_outputs) for t, task in zone.tasks.items()},
            )
        for group in plan.groups:
            # one more output node than anything is connected to
            router.stash_group(group.name, iteration, outputs_of(group.name, group.num_outputs + 1))
        reads = [
            ([(c.src, c.src_node) for c in plan.to_group[g.name]],
             lambda g=g: router.group_inputs(g, iteration))
            for g in plan.groups
        ] + [
            ([(c.src, c.src_node)
              for c in [*plan.cross, *itertools.chain(*plan.from_group.values())]
              if plan.zone_of[c.dst] == k],
             lambda k=k: router.zone_externals(k, iteration))
            for k in range(1, len(plan.zones))
        ]
        return router, alive, reads

    @pytest.mark.parametrize("graph", [grouped, fan_out_graph])
    def test_each_reader_in_any_order_then_gone(self, graph):
        n_reads = len(self.routed(graph())[2])
        for order in itertools.permutations(range(n_reads)):
            router, alive, reads = self.routed(graph())
            owed = [src for srcs, _ in reads for src in srcs]
            # what nobody reads was never kept: sink outputs, spare group nodes
            assert {src for src, ref in alive.items() if ref()} == set(owed)
            for i in order:
                srcs, read = reads[i]
                got = read()
                got = list(got.values()) if isinstance(got, dict) else got
                assert sorted(map(id, got)) == sorted(id(alive[src]()) for src in srcs)
                del got
                for src in srcs:
                    owed.remove(src)
                assert {src for src, ref in alive.items() if ref()} == set(owed)
            assert owed == [] and not router._vals

    def test_the_fan_out_endpoint_has_four_readers(self):
        _, _, reads = self.routed(fan_out_graph())
        assert sum(srcs.count(("Wave", 0)) for srcs, _ in reads) == 4

    def test_an_undeclared_extra_read_is_a_key_error(self):
        router, _, reads = self.routed(grouped())
        for _, read in reads:
            read()
        for _, read in reads:
            with pytest.raises(KeyError):
                read()

    def test_iterations_are_kept_apart(self):
        plan = partition_stages(grouped())
        router = StageRouter(plan)
        first, second = _Value(), _Value()
        router.stash_zone(0, 0, {"Wave": [first]})
        router.stash_zone(0, 1, {"Wave": [second]})
        assert router.group_inputs(plan.groups[0], 1) == [second]
        assert router.group_inputs(plan.groups[0], 0) == [first]
        assert not router._vals


def _alive_at_last_settle(verification: str, n_workers: int, iterations: int) -> list[bool]:
    """Run Src → {Gain, FFT} (parallel) → Grapher on the simulated grid
    and report, at the last ``iteration-complete`` (the run still in
    flight), which of the source's outputs are alive."""
    emitted = []

    class WatchedSource(Unit):
        NUM_INPUTS = 0
        NUM_OUTPUTS = 1
        OUTPUT_TYPES = (SampleSet,)

        def process(self, inputs):
            out = SampleSet(data=np.full(64, float(len(emitted))), sampling_rate=64.0)
            emitted.append(weakref.ref(out))
            return [out]

    registry = UnitRegistry()
    for name in ("Gain", "FFT", "Grapher"):
        registry.register(global_registry().lookup(name).cls)
    registry.register(WatchedSource)
    g = TaskGraph("watched", registry=registry)
    g.add_task("Src", "WatchedSource")
    g.add_task("Gain", "Gain", factor=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Src", "Gain"), ("Gain", "FFT"), ("FFT", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("G", ["Gain", "FFT"], policy="parallel")

    grid = ConsumerGrid(n_workers=n_workers, seed=1)
    alive_at = {}

    def on_progress(event):
        if event.name == "iteration-complete":
            gc.collect()
            alive_at[dict(event.attrs)["iteration"]] = [r() is not None for r in emitted]

    grid.sim.tracer.subscribe(on_progress, category="progress")
    report = grid.run(g, iterations=iterations, verification=verification)
    assert len(report.group_results) == iterations
    at_last = alive_at[iterations - 1]
    assert len(at_last) == iterations
    return at_last


def test_a_dealt_input_dies_when_its_result_settles():
    """End to end on the simulated grid: by the last ``iteration-complete``
    only what a worker's engine last touched is alive.  The router used
    to keep every iteration's inputs to the end."""
    n_workers, iterations = 3, 12
    at_last = _alive_at_last_settle("none", n_workers, iterations)
    assert sum(at_last) <= n_workers and not any(at_last[: iterations - n_workers])


def test_a_replicated_input_dies_when_its_result_settles():
    """The same under replicate-3, where every worker gets every input and
    the replicas share one computation: the shared tables hold inputs
    weakly, so a settled input still dies."""
    n_workers, iterations = 3, 12
    at_last = _alive_at_last_settle("replicate-3", n_workers, iterations)
    assert sum(at_last) <= n_workers and not any(at_last[: iterations - n_workers])
