"""Tests for the local data-flow engine."""

import numpy as np
import pytest

from repro.core import GraphError, LocalEngine, TaskGraph, UnitError
from tests.test_core_taskgraph import fig1_graph


class TestExecution:
    def test_fig1_runs_and_finds_peak(self):
        g = fig1_graph()
        engine = LocalEngine(g)
        probe = engine.attach_probe("Accum")
        engine.run(iterations=20)
        spec = probe.last
        peak_hz = spec.frequencies()[spec.data.argmax()]
        assert peak_hz == pytest.approx(64.0)

    def test_probe_collects_every_iteration(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        engine.run(iterations=7)
        assert len(probe.values) == 7

    def test_empty_probe_last_raises(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        with pytest.raises(UnitError):
            _ = probe.last

    def test_probe_suffix_matching_in_flat_graph(self):
        g = fig1_graph()
        g.group_tasks("GroupTask", ["Gaussian", "FFT"])
        engine = LocalEngine(g)
        probe = engine.attach_probe("FFT")  # matches GroupTask/FFT
        engine.run(1)
        assert probe.task == "GroupTask/FFT"
        assert len(probe.values) == 1

    def test_probe_unknown_task(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(GraphError):
            engine.attach_probe("Ghost")

    def test_probe_bad_node(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(GraphError):
            engine.attach_probe("Wave", node=3)

    def test_sink_outputs_returned(self):
        engine = LocalEngine(fig1_graph())
        outputs = engine.run(iterations=2)
        assert "Grapher" in outputs
        assert len(outputs["Grapher"]) == 1  # one input payload last iteration

    def test_grapher_frames_accumulate(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=4)
        grapher = engine.units["Grapher"]
        assert len(grapher.shown) == 4

    def test_iterations_must_be_positive(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(ValueError):
            engine.run(iterations=0)

    def test_invalid_graph_rejected_at_engine_build(self):
        g = TaskGraph("bad")
        g.add_task("W", "Wave")
        g.add_task("M", "Mixer")
        g.connect("W", 0, "M", 0)  # Mixer input 1 unfed
        with pytest.raises(GraphError):
            LocalEngine(g)

    def test_stats_accounting(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=3)
        s = engine.stats
        assert s.iterations == 3
        assert s.firings == 3 * 6
        assert s.modelled_flops > 0
        assert s.bytes_moved > 0
        assert "FFT" in s.per_task_flops

    def test_unit_output_arity_checked(self):
        from repro.core import Unit, UnitRegistry

        class Liar(Unit):
            NUM_INPUTS = 0
            NUM_OUTPUTS = 2

            def process(self, inputs):
                return [None]  # promises 2, returns 1

        reg = UnitRegistry()
        reg.register(Liar)
        g = TaskGraph("liar", registry=reg)
        g.add_task("L", "Liar")
        with pytest.raises(UnitError):
            LocalEngine(g).run(1)

    def test_deterministic_across_engines(self):
        p1 = LocalEngine(fig1_graph()).attach_probe  # noqa: F841
        e1, e2 = LocalEngine(fig1_graph()), LocalEngine(fig1_graph())
        pr1, pr2 = e1.attach_probe("Accum"), e2.attach_probe("Accum")
        e1.run(5)
        e2.run(5)
        np.testing.assert_array_equal(pr1.last.data, pr2.last.data)


class TestStateAndCheckpoint:
    def test_accumstat_state_advances(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=5)
        assert engine.units["Accum"]._count == 5
