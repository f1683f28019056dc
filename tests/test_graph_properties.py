"""Property-based tests: random task graphs, both wire formats, engine.

A hypothesis strategy builds random layered DAGs out of a small unit
palette; the properties assert the invariants the rest of the system
relies on: deterministic topological order, flatten preserving structure
and semantics, and both XML formats round-tripping losslessly.
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
    graph_from_wsfl,
    graph_to_string,
    graph_to_wsfl,
)

# Palette: (unit, n_in, n_out) — all SampleSet→SampleSet so any wiring
# type-checks.
SINGLE = ["Gain", "Offset", "LowPass", "HighPass", "Reverse"]


@st.composite
def random_graphs(draw):
    """A random layered DAG: Wave sources → transform layers → Grapher."""
    n_sources = draw(st.integers(1, 2))
    n_layers = draw(st.integers(0, 3))
    g = TaskGraph("random")
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
    g2 = graph_from_string(xml)
    assert sorted(g2.tasks) == sorted(g.tasks)
    assert {c.label() for c in g2.connections} == {c.label() for c in g.connections}
    assert graph_to_string(g2) == xml


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_wsfl_round_trip(g):
    wsfl = graph_to_wsfl(g)
    g2 = graph_from_wsfl(wsfl)
    assert sorted(g2.tasks) == sorted(g.tasks)
    assert {c.label() for c in g2.connections} == {c.label() for c in g.connections}
    assert graph_to_wsfl(g2) == wsfl


@given(random_graphs())
@settings(max_examples=20, deadline=None)
def test_formats_agree_on_execution(g):
    """Native and WSFL encodings execute to identical payloads."""
    g_native = graph_from_string(graph_to_string(g))
    g_wsfl = graph_from_wsfl(graph_to_wsfl(g))
    e1, e2 = LocalEngine(g_native), LocalEngine(g_wsfl)
    e1.run(2)
    e2.run(2)
    for name, unit in e1.units.items():
        if hasattr(unit, "frames") and unit.frames:
            other = e2.units[name]
            np.testing.assert_allclose(unit.last_frame.y, other.last_frame.y)


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
    plain = graph_from_string(graph_to_string(g))
    grouped = graph_from_string(graph_to_string(g))
    grouped.group_tasks("G", list(pair))
    e1, e2 = LocalEngine(plain), LocalEngine(grouped)
    e1.run(2)
    e2.run(2)
    for name, unit in e1.units.items():
        if hasattr(unit, "frames") and unit.frames:
            mirror = e2.units.get(name) or e2.units.get(f"G/{name}")
            np.testing.assert_allclose(unit.last_frame.y, mirror.last_frame.y)


class TestWsflSpecifics:
    def test_grouped_graph_round_trip(self):
        from repro.analysis import fig1_grouped

        g = fig1_grouped()
        g2 = graph_from_wsfl(graph_to_wsfl(g))
        group = g2.task("GroupTask")
        assert group.policy == "parallel"
        assert sorted(group.graph.tasks) == ["FFT", "Gaussian"]
        g2.validate()

    def test_wsfl_vocabulary(self):
        from repro.analysis import fig1_grouped

        text = graph_to_wsfl(fig1_grouped())
        for token in ("flowModel", "activity", "dataLink", "export", "composite"):
            assert token in text, token

    def test_wsfl_errors(self):
        import pytest

        from repro.core import SerializationError

        with pytest.raises(SerializationError):
            graph_from_wsfl("<notflow/>")
        with pytest.raises(SerializationError):
            graph_from_wsfl("<flowModel><activity/></flowModel>")
        with pytest.raises(SerializationError):
            graph_from_wsfl(
                '<flowModel><activity name="a" operation="Wave" version="9.9"/>'
                "</flowModel>"
            )
        with pytest.raises(SerializationError):
            graph_from_wsfl("<flowModel><widget/></flowModel>")
