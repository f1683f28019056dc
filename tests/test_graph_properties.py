"""Property-based tests: random task graphs, the XML wire format, engine.

A hypothesis strategy builds random layered DAGs out of a small unit
palette; the properties assert the invariants the rest of the system
relies on: deterministic topological order, flatten preserving structure
and semantics, and the XML wire format round-tripping losslessly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Connection,
    GraphError,
    LocalEngine,
    TaskGraph,
    graph_from_string,
    graph_to_string,
)

from tests.test_core_taskgraph import label
from tests.test_engine_schedule import FIXTURES

# Palette: all SampleSet→SampleSet so any wiring type-checks; ``Reverse``
# is a test-local unit in ``FIXTURES``.
SINGLE = ["Gain", "LowPass", "HighPass", "Reverse"]


@st.composite
def random_graphs(draw):
    """A random layered DAG: Wave sources → transform layers → Grapher."""
    n_sources = draw(st.integers(1, 2))
    n_layers = draw(st.integers(0, 3))
    g = TaskGraph("random", registry=FIXTURES)
    frontier = []
    for s in range(n_sources):
        freq = draw(st.floats(1.0, 100.0))
        g.add_task(f"Src{s}", "Wave", frequency=freq, samples=64)
        frontier.append(f"Src{s}")
    counter = 0
    for layer in range(n_layers):
        width = draw(st.integers(1, 3))
        new_frontier = []
        for w in range(width):
            unit = draw(st.sampled_from(SINGLE))
            name = f"T{counter}"
            counter += 1
            g.add_task(name, unit)
            src = draw(st.sampled_from(frontier))
            g.connect(src, 0, name, 0)
            new_frontier.append(name)
        # Anything unconsumed stays in the frontier (fan-out is legal).
        frontier = new_frontier + [f for f in frontier if not g.out_connections(f)]
    for i, f in enumerate(list(frontier)):
        g.add_task(f"Sink{i}", "Grapher")
        g.connect(f, 0, f"Sink{i}", 0)
    return g


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_validates_and_orders(g):
    g.validate()
    order = g.topological_order()
    assert sorted(order) == sorted(g.tasks)
    index = {name: i for i, name in enumerate(order)}
    for c in g.connections:
        assert index[c.src] < index[c.dst]
    # Determinism.
    assert g.topological_order() == order


@st.composite
def named_dags(draw):
    """≤ 12 tasks, random forward edges along a hidden order.

    The names are a shuffle of that order, so several tasks are usually
    ready at once and only the name decides which goes first.  Only the
    ordering code is under test: the edges bypass ``connect``'s one-feed-
    per-input rule (parallel edges included, which must count once).
    """
    names = draw(st.permutations("abcdefghijkl"[: draw(st.integers(1, 12))]))
    g = TaskGraph("dag")
    for name in names:
        g.add_task(name, "Gain")
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for src, dst in draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []:
        g.connections.append(Connection(src, 0, dst, 0))
    return g


@given(named_dags())
@settings(max_examples=200, deadline=None)
def test_order_and_descendants_match_the_networkx_reference(g):
    nx = pytest.importorskip("networkx")
    ref = nx.DiGraph()
    ref.add_nodes_from(g.tasks)
    ref.add_edges_from((c.src, c.dst) for c in g.connections)
    assert g.topological_order() == list(nx.lexicographical_topological_sort(ref))
    for name in g.tasks:
        assert g.descendants(name) == nx.descendants(ref, name)


@given(named_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_back_edge_is_a_graph_error_naming_the_cycle(g, data):
    """Close any forward path (or a self-loop) and both entry points raise,
    naming every task on the cycle."""
    dst = data.draw(st.sampled_from(sorted(g.tasks)))
    src = data.draw(st.sampled_from(sorted(g.descendants(dst) | {dst})))
    on_cycle = {dst, src} | {
        n for n in g.descendants(dst) if src in g.descendants(n)
    }
    g.connections.append(Connection(src, 0, dst, 0))
    for check in (g.validate, g.topological_order):
        with pytest.raises(GraphError, match="cycle") as err:
            check()
        assert all(repr(n) in str(err.value) for n in on_cycle)
    with pytest.raises(GraphError):
        g.descendants("no-such-task")


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_native_xml_round_trip(g):
    xml = graph_to_string(g)
    g2 = graph_from_string(xml, registry=FIXTURES)
    assert sorted(g2.tasks) == sorted(g.tasks)
    assert {label(c) for c in g2.connections} == {label(c) for c in g.connections}
    assert graph_to_string(g2) == xml


@given(random_graphs(), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_engine_deterministic_property(g, iterations):
    e1, e2 = LocalEngine(g), LocalEngine(g)
    e1.run(iterations)
    e2.run(iterations)
    assert e1.stats.firings == e2.stats.firings == iterations * len(e1.graph.tasks)
    assert e1.stats.modelled_flops == e2.stats.modelled_flops


@given(random_graphs())
@settings(max_examples=25, deadline=None)
def test_grouping_preserves_execution_property(g):
    """Grouping any connected transform pair never changes payloads."""
    # Find a groupable pair: a transform feeding another transform/sink.
    pair = None
    for c in g.connections:
        if not c.src.startswith("Src") and not c.dst.startswith("Sink"):
            pair = (c.src, c.dst)
            break
    if pair is None:
        return  # nothing groupable in this sample
    plain = graph_from_string(graph_to_string(g), registry=FIXTURES)
    grouped = graph_from_string(graph_to_string(g), registry=FIXTURES)
    grouped.group_tasks("G", list(pair))
    e1, e2 = LocalEngine(plain), LocalEngine(grouped)
    e1.run(2)
    e2.run(2)
    for name, unit in e1.units.items():
        if hasattr(unit, "shown") and unit.shown:
            mirror = e2.units.get(name) or e2.units.get(f"G/{name}")
            np.testing.assert_allclose(unit.shown[-1].data, mirror.shown[-1].data)
