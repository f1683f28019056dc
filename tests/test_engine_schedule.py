"""``LocalEngine.step`` runs a schedule compiled once in ``__init__``.

The algorithm it replaced re-derived the graph every iteration; it is
kept here as the reference, and on random small DAGs (fan-out, parallel
edges, external inputs, a probe attached after construction) both must
agree on every output, every statistic and the sink outputs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphError, LocalEngine, TaskGraph, Unit, UnitError, UnitRegistry, global_registry,
)
from repro.core.engine import _payload_bytes
from repro.core.types import SampleSet
from repro.transport.wire import result_checksum


class Reverse(Unit):
    """Time-reverses a sample set."""

    INPUT_TYPES = OUTPUT_TYPES = (SampleSet,)

    def process(self, inputs):
        (sig,) = inputs
        return [SampleSet(sig.data[::-1].copy(), sampling_rate=sig.sampling_rate, t0=sig.t0)]


class Duplicate(Unit):
    """Returns its input object on both outputs: an output that is an input."""

    NUM_OUTPUTS = 2

    def process(self, inputs):
        return [inputs[0], inputs[0]]


def fixture_registry(*units: type[Unit]) -> UnitRegistry:
    """The global units plus the test-local ``units``."""
    registry = UnitRegistry()
    for desc in global_registry():
        registry.register(desc.cls, desc.category)
    for cls in units:
        registry.register(cls, "test")
    return registry


FIXTURES = fixture_registry(Reverse, Duplicate)

# (unit, inputs, outputs): everything carries 64-sample SampleSets
PALETTE = [
    ("Gain", 1, 1), ("Reverse", 1, 1), ("Duplicate", 1, 2), ("Mixer", 2, 1), ("Grapher", 1, 0),
]


def reference_step(engine, external):
    """The per-iteration algorithm before the schedule: asks the graph."""
    pending = dict(external)
    outputs_map, sinks = {}, {}
    for name in engine.order:
        task = engine.graph.task(name)
        unit = engine.units[name]
        inputs = [pending.pop((name, node)) for node in range(task.num_inputs)]
        in_bytes = sum(_payload_bytes(v) for v in inputs)
        outputs = unit.process(inputs) or []
        outputs_map[name] = list(outputs)
        engine.stats.firings += 1
        flops = unit.estimated_flops(in_bytes)
        engine.stats.modelled_flops += flops
        engine.stats.per_task_flops[name] = engine.stats.per_task_flops.get(name, 0.0) + flops
        for probe in engine.probes:
            if probe.task == name:
                probe(outputs[probe.node])
        outgoing = [c for c in engine.graph.connections if c.src == name]
        for conn in outgoing:
            pending[(conn.dst, conn.dst_node)] = outputs[conn.src_node]
            engine.stats.bytes_moved += _payload_bytes(outputs[conn.src_node])
        if not outgoing and task.num_inputs:
            sinks.setdefault(name, []).extend(inputs)
    engine.stats.iterations += 1
    return outputs_map, sinks


@st.composite
def dags(draw):
    """(graph, external input keys, an output node to probe)."""
    g = TaskGraph("random", registry=FIXTURES)
    g.add_task("Src", "Wave", frequency=draw(st.floats(1.0, 100.0)), samples=64)
    produced = [("Src", 0)]  # any of these may feed any number of inputs
    external = []
    for i in range(draw(st.integers(1, 7))):
        unit, n_in, n_out = draw(st.sampled_from(PALETTE))
        name = f"T{i}"
        g.add_task(name, unit)
        if draw(st.integers(0, 4)) == 0:
            external += [(name, node) for node in range(n_in)]
        else:
            for node in range(n_in):
                # a Mixer drawing the same source twice is a parallel edge
                src, src_node = draw(st.sampled_from(produced))
                g.connect(src, src_node, name, node)
        produced += [(name, node) for node in range(n_out)]
    return g, external, draw(st.sampled_from(produced))


def fed(external, iteration):
    return {
        key: SampleSet(data=np.arange(64.0) + 10 * i + iteration, sampling_rate=1024.0)
        for i, key in enumerate(external)
    }


@given(dags())
@settings(max_examples=60, deadline=None)
def test_step_agrees_with_the_algorithm_it_replaced(case):
    graph, external, (probe_task, probe_node) = case
    new, old = LocalEngine(graph, external), LocalEngine(graph, external)
    new_probe = new.attach_probe(probe_task, probe_node)  # after construction
    old_probe = old.attach_probe(probe_task, probe_node)
    for iteration in range(3):
        outputs = new.step(fed(external, iteration))
        want_outputs, want_sinks = reference_step(old, fed(external, iteration))
        assert list(outputs) == list(want_outputs)
        assert result_checksum(outputs) == result_checksum(want_outputs)
        assert list(new._sink_outputs) == list(want_sinks)
        assert result_checksum(new._sink_outputs) == result_checksum(want_sinks)
        assert dataclasses.asdict(new.stats) == dataclasses.asdict(old.stats)
        assert result_checksum(new_probe.values) == result_checksum(old_probe.values)
        assert len(new_probe.values) == iteration + 1


def two_stage():
    g = TaskGraph("two")
    g.add_task("A", "Gain")
    g.add_task("B", "Mixer")
    g.connect("A", 0, "B", 0)
    return g


class TestMessagesUnchanged:
    def test_missing_comes_before_undeclared(self):
        g = two_stage()
        engine = LocalEngine(g, [("A", 0), ("B", 1)])
        value = SampleSet(data=np.zeros(4))
        with pytest.raises(GraphError) as err:
            engine.step({("A", 0): value, ("Z", 9): value})
        assert str(err.value) == "missing external inputs: [('B', 1)]"
        with pytest.raises(GraphError) as err:
            engine.step({("A", 0): value, ("B", 1): value, ("Z", 9): value})
        assert str(err.value) == "undeclared external inputs supplied: [('Z', 9)]"
        with pytest.raises(GraphError) as err:
            LocalEngine(TaskGraph("empty")).step({("Z", 9): value})
        assert str(err.value) == "undeclared external inputs supplied: [('Z', 9)]"

    def test_fired_before_input_arrived(self):
        g = TaskGraph("unfed")
        g.add_task("Lonely", "Mixer")  # no input fed at all passes the fedness check
        with pytest.raises(GraphError) as err:
            LocalEngine(g).step()
        assert str(err.value) == (
            "task 'Lonely' fired before input 0 arrived; graph is under-connected"
        )

    def test_wrong_output_count(self):
        g = TaskGraph("liar", registry=FIXTURES)
        g.add_task("Src", "Wave", samples=8)
        g.add_task("Tee", "Duplicate")
        g.connect("Src", 0, "Tee", 0)
        engine = LocalEngine(g)
        engine.units["Tee"].process = lambda inputs: [inputs[0]]
        with pytest.raises(UnitError) as err:
            engine.step()
        assert str(err.value) == "unit Duplicate returned 1 outputs, declared 2"


def test_step_does_not_ask_the_graph(monkeypatch):
    g = TaskGraph("chain")
    g.add_task("Src", "Wave", samples=8)
    g.add_task("Gain", "Gain")
    g.add_task("Out", "Grapher")
    g.connect("Src", 0, "Gain", 0)
    g.connect("Gain", 0, "Out", 0)
    engine = LocalEngine(g)

    def refuse(*args, **kwargs):
        raise AssertionError("step consulted the graph")

    for method in ("out_connections", "in_connections", "task"):
        monkeypatch.setattr(type(engine.graph), method, refuse)
    engine.run(3)
    assert engine.stats.firings == 9
