"""Tests for graph partitioning around the distributed group."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.core import TaskGraph, Unit, UnitRegistry, global_registry
from repro.core.types import SampleSet
from repro.service import SchedulingError, find_distributable_group, partition_for_group
from repro.service.partition import StageRouter, partition_stages
from tests.test_core_taskgraph import fig1_graph


def grouped():
    g = fig1_graph()
    g.group_tasks("GroupTask", ["Gaussian", "FFT"], policy="parallel")
    return g


class TestFindGroup:
    def test_finds_single_policy_group(self):
        g = grouped()
        assert find_distributable_group(g).name == "GroupTask"

    def test_none_when_no_policy(self):
        g = fig1_graph()
        g.group_tasks("G", ["Gaussian", "FFT"], policy="none")
        assert find_distributable_group(g) is None

    def test_multiple_policy_groups_rejected(self):
        g = fig1_graph()
        g.group_tasks("G1", ["Gaussian"], policy="parallel")
        g.group_tasks("G2", ["FFT"], policy="parallel")
        with pytest.raises(SchedulingError):
            find_distributable_group(g)


class TestPartition:
    def test_zones(self):
        part = partition_for_group(grouped(), "GroupTask")
        assert sorted(part.upstream.tasks) == ["Wave"]
        assert sorted(part.downstream.tasks) == ["Accum", "Grapher", "Power"]

    def test_boundary_connections(self):
        part = partition_for_group(grouped(), "GroupTask")
        assert [c.label() for c in part.to_group] == ["Wave:0->GroupTask:0"]
        assert [c.label() for c in part.from_group] == ["GroupTask:0->Power:0"]
        assert part.cross == []

    def test_downstream_internal_connections_preserved(self):
        part = partition_for_group(grouped(), "GroupTask")
        labels = {c.label() for c in part.downstream.connections}
        assert "Power:0->Accum:0" in labels
        assert "Accum:0->Grapher:0" in labels

    def test_downstream_external_inputs(self):
        part = partition_for_group(grouped(), "GroupTask")
        assert part.downstream_external_inputs() == [("Power", 0)]

    def test_cross_connection_classified(self):
        g = TaskGraph("cross")
        g.add_task("Wave", "Wave")
        g.add_task("Noise", "GaussianNoise")
        g.add_task("Mix", "Mixer")
        g.connect("Wave", 0, "Noise", 0)
        g.connect("Wave", 0, "Mix", 1)  # bypasses the group
        g.connect("Noise", 0, "Mix", 0)
        g.group_tasks("G", ["Noise"], policy="parallel")
        part = partition_for_group(g, "G")
        assert [c.label() for c in part.cross] == ["Wave:0->Mix:1"]
        assert part.downstream_external_inputs() == [("Mix", 0), ("Mix", 1)]

    def test_not_a_group_rejected(self):
        g = grouped()
        with pytest.raises(SchedulingError):
            partition_for_group(g, "Wave")

    def test_group_with_sources_inside(self):
        """A group containing the source has zero external inputs."""
        g = TaskGraph("srcgrp")
        g.add_task("Wave", "Wave")
        g.add_task("FFT", "FFT")
        g.add_task("Power", "PowerSpectrum")
        g.connect("Wave", 0, "FFT", 0)
        g.connect("FFT", 0, "Power", 0)
        g.group_tasks("G", ["Wave", "FFT"], policy="parallel")
        part = partition_for_group(g, "G")
        assert part.to_group == []
        assert sorted(part.upstream.tasks) == []
        assert sorted(part.downstream.tasks) == ["Power"]


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


def test_a_dealt_input_dies_when_its_result_settles():
    """End to end on the simulated grid: by the last ``iteration-complete``
    (the run still in flight) only what a worker's engine last touched is
    alive.  The router used to keep every iteration's inputs to the end."""
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

    n_workers, iterations = 3, 12
    grid = ConsumerGrid(n_workers=n_workers, seed=1)
    alive_at = {}

    def on_progress(event):
        if event.name == "iteration-complete":
            gc.collect()
            alive_at[dict(event.attrs)["iteration"]] = [r() is not None for r in emitted]

    grid.sim.tracer.subscribe(on_progress, category="progress")
    report = grid.run(g, iterations=iterations)
    assert len(report.group_results) == iterations
    at_last = alive_at[iterations - 1]
    assert len(at_last) == iterations
    assert sum(at_last) <= n_workers and not any(at_last[: iterations - n_workers])
