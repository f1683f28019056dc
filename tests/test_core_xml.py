"""Tests for task-graph XML serialisation (Code Segment 1 format)."""

import pytest

from repro.core import (
    SerializationError,
    TaskGraph,
    UnitRegistry,
    graph_from_string,
    graph_to_string,
)
from tests.test_core_taskgraph import fig1_graph, label


def _group_with(mapping: str) -> str:
    return (
        '<taskgraph><group name="g"><subgraph><task name="a" unit="Gain"/>'
        f"</subgraph>{mapping}</group></taskgraph>"
    )


#: (graph text, what the SerializationError names): a graph file comes
#: from outside the program, so none of these may escape as another type
MALFORMED = {
    "mapping-without-external": (
        _group_with('<nodemapping direction="in" task="a" node="0"/>'),
        "<nodemapping> attribute 'external'",
    ),
    "mapping-without-node": (
        _group_with('<nodemapping direction="in" external="0" task="a"/>'),
        "<nodemapping> attribute 'node'",
    ),
    "mapping-non-integer-external": (
        _group_with('<nodemapping direction="in" external="x" task="a" node="0"/>'),
        "<nodemapping> attribute 'external' must be an integer, got 'x'",
    ),
    "mapping-non-integer-node": (
        _group_with('<nodemapping direction="in" external="0" task="a" node="1.5"/>'),
        "<nodemapping> attribute 'node' must be an integer, got '1.5'",
    ),
    "mapping-bad-direction": (
        _group_with('<nodemapping direction="sideways" external="0" task="a" node="0"/>'),
        "<nodemapping> attribute 'direction' must be 'in' or 'out', got 'sideways'",
    ),
    "mapping-without-direction": (
        _group_with('<nodemapping external="0" task="a" node="0"/>'),
        "<nodemapping> attribute 'direction'",
    ),
    "mapping-without-task": (
        _group_with('<nodemapping direction="in" external="0" node="0"/>'),
        "<nodemapping> requires a 'task' attribute",
    ),
    "param-without-name": (
        '<taskgraph><task name="a" unit="Gain"><param value="1"/></task></taskgraph>',
        "<param> of task 'a' requires a 'name' attribute",
    ),
}


def grouped_fig1() -> TaskGraph:
    g = fig1_graph()
    g.group_tasks("GroupTask", ["Gaussian", "FFT"], policy="parallel")
    return g


class TestRoundTrip:
    def test_plain_graph_round_trip(self):
        g = fig1_graph()
        xml = graph_to_string(g)
        g2 = graph_from_string(xml)
        assert sorted(g2.tasks) == sorted(g.tasks)
        assert {label(c) for c in g2.connections} == {label(c) for c in g.connections}
        assert g2.task("Wave").params["frequency"] == 64.0
        assert g2.task("Gaussian").params["sigma"] == 2.0

    def test_grouped_graph_round_trip(self):
        g = grouped_fig1()
        g2 = graph_from_string(graph_to_string(g))
        group = g2.task("GroupTask")
        assert group.policy == "parallel"
        assert sorted(group.graph.tasks) == ["FFT", "Gaussian"]
        assert group.input_map == [("Gaussian", 0)]
        assert group.output_map == [("FFT", 0)]
        g2.validate()

    def test_round_trip_is_stable(self):
        """serialise(parse(serialise(g))) == serialise(g)."""
        xml1 = graph_to_string(grouped_fig1())
        xml2 = graph_to_string(graph_from_string(xml1))
        assert xml1 == xml2

    def test_executes_identically_after_round_trip(self):
        import numpy as np

        from repro.core import LocalEngine

        g = grouped_fig1()
        g2 = graph_from_string(graph_to_string(g))
        e1, e2 = LocalEngine(g), LocalEngine(g2)
        p1, p2 = e1.attach_probe("Accum"), e2.attach_probe("Accum")
        e1.run(3)
        e2.run(3)
        np.testing.assert_allclose(p1.last.data, p2.last.data)

    def test_param_types_survive(self):
        g = TaskGraph("p")
        g.add_task("W", "Wave", frequency=32.5, samples=128, waveform="square")
        g2 = graph_from_string(graph_to_string(g))
        params = g2.task("W").params
        assert params["frequency"] == 32.5 and isinstance(params["frequency"], float)
        assert params["samples"] == 128 and isinstance(params["samples"], int)
        assert params["waveform"] == "square"


class TestSchema:
    def test_xml_mentions_code_segment_1_vocabulary(self):
        """The schema carries the same information as Code Segment 1."""
        xml = graph_to_string(grouped_fig1())
        for token in ("taskgraph", "task", "group", "nodemapping", "connection",
                      "Wave", "SampleSet", "GroupTask"):
            assert token in xml, token

    def test_graph_is_small_text(self):
        """Paper: 'the graph itself is a text file that does not consume
        many resources' — a five-task workflow stays in the low KB."""
        xml = graph_to_string(grouped_fig1())
        assert len(xml.encode()) < 5000

    def test_no_code_in_graph(self):
        xml = graph_to_string(grouped_fig1())
        assert "def process" not in xml
        assert "lambda" not in xml


class TestErrors:
    def test_malformed_xml(self):
        with pytest.raises(SerializationError):
            graph_from_string("<taskgraph><oops>")

    def test_wrong_root(self):
        with pytest.raises(SerializationError):
            graph_from_string("<sometag/>")

    def test_unexpected_element(self):
        with pytest.raises(SerializationError):
            graph_from_string('<taskgraph name="x"><widget/></taskgraph>')

    def test_task_missing_attributes(self):
        with pytest.raises(SerializationError):
            graph_from_string('<taskgraph name="x"><task name="only"/></taskgraph>')

    def test_bad_endpoint(self):
        xml = (
            '<taskgraph name="x">'
            '<task name="W" unit="Wave"/>'
            '<connection source="W" dest="W:0"/>'
            "</taskgraph>"
        )
        with pytest.raises(SerializationError):
            graph_from_string(xml)

    def test_version_mismatch_detected(self):
        """The on-demand model guarantees version consistency; a graph
        pinned to a different unit version must be rejected."""
        xml = (
            '<taskgraph name="x">'
            '<task name="W" unit="Wave" version="9.9"/>'
            "</taskgraph>"
        )
        with pytest.raises(SerializationError, match="9.9"):
            graph_from_string(xml)

    def test_unserialisable_param_rejected(self):
        g = TaskGraph("p")
        task = g.add_task("W", "Wave")
        task.params["frequency"] = object()  # sneak in a bad value
        with pytest.raises(SerializationError):
            graph_to_string(g)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_attribute_is_a_serialization_error(self, case):
        text, names = MALFORMED[case]
        with pytest.raises(SerializationError) as err:
            graph_from_string(text)
        assert names in str(err.value)

    def test_parse_against_empty_registry_fails(self):
        xml = graph_to_string(fig1_graph())
        empty = UnitRegistry()
        from repro.core import RegistryError

        with pytest.raises(RegistryError):
            graph_from_string(xml, registry=empty)
