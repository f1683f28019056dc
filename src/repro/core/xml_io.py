"""XML task-graph serialisation.

"A Triana network can be constructed using the GUI or directly by writing
an XML taskgraph"; peers exchange work as "XML scripts" (Code Segment 1).
This module defines that interchange format and its parser.  The schema
mirrors the paper's example: a ``<taskgraph>`` element containing
``<task>`` elements (unit name, parameters, typed nodes), nested
``<group>`` elements with ``<nodemapping>`` entries and a distribution
policy, and ``<connection>`` elements.

The XML deliberately carries *no code* — only unit names/versions — which
is what makes the paper's "limited overhead ... the graph itself is a text
file" claim hold; benchmarks measure the serialised size directly.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Optional

from .errors import SerializationError
from .registry import UnitRegistry, global_registry
from .taskgraph import GroupTask, Task, TaskGraph

__all__ = [
    "graph_to_xml",
    "graph_from_xml",
    "graph_to_string",
    "graph_from_string",
    "unit_names_in_xml",
]

_FORMAT_VERSION = "1"


def _encode_value(value) -> str:
    """Encode a parameter value as JSON text (types survive round-trip)."""
    try:
        return json.dumps(value)
    except TypeError as exc:
        raise SerializationError(
            f"parameter value {value!r} is not XML-serialisable"
        ) from exc


def _decode_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"bad parameter encoding {text!r}") from exc


def _task_element(task: Task) -> ET.Element:
    el = ET.Element("task", name=task.name, unit=task.unit_name)
    el.set("version", task.descriptor.version)
    for pname, pvalue in sorted(task.params.items()):
        ET.SubElement(el, "param", name=pname, value=_encode_value(pvalue))
    for node in range(task.num_inputs):
        types = ",".join(t.__name__ for t in task.input_types_at(node))
        ET.SubElement(el, "inputnode", index=str(node), types=types)
    for node in range(task.num_outputs):
        types = ",".join(t.__name__ for t in task.output_types_at(node))
        ET.SubElement(el, "outputnode", index=str(node), types=types)
    return el


def _group_element(group: GroupTask) -> ET.Element:
    el = ET.Element("group", name=group.name, policy=group.policy)
    inner = _graph_element(group.graph, tag="subgraph")
    el.append(inner)
    for idx, (tname, tnode) in enumerate(group.input_map):
        ET.SubElement(
            el, "nodemapping",
            direction="in", external=str(idx), task=tname, node=str(tnode),
        )
    for idx, (tname, tnode) in enumerate(group.output_map):
        ET.SubElement(
            el, "nodemapping",
            direction="out", external=str(idx), task=tname, node=str(tnode),
        )
    return el


def _graph_element(graph: TaskGraph, tag: str = "taskgraph") -> ET.Element:
    root = ET.Element(tag, name=graph.name, format=_FORMAT_VERSION)
    for name in sorted(graph.tasks):
        task = graph.tasks[name]
        if isinstance(task, GroupTask):
            root.append(_group_element(task))
        else:
            root.append(_task_element(task))
    for conn in graph.connections:
        ET.SubElement(
            root, "connection",
            source=f"{conn.src}:{conn.src_node}",
            dest=f"{conn.dst}:{conn.dst_node}",
        )
    return root


def graph_to_xml(graph: TaskGraph) -> ET.Element:
    """Serialise a task graph to an XML element tree."""
    return _graph_element(graph)


def graph_to_string(graph: TaskGraph) -> str:
    """Serialise a task graph to an XML string (the wire format)."""
    el = graph_to_xml(graph)
    ET.indent(el)
    return ET.tostring(el, encoding="unicode")


def _parse_endpoint(text: str) -> tuple[str, int]:
    try:
        name, node = text.rsplit(":", 1)
        return name, int(node)
    except ValueError as exc:
        raise SerializationError(f"bad connection endpoint {text!r}") from exc


def _int_attr(el: ET.Element, attr: str) -> int:
    value = el.get(attr)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SerializationError(
            f"<{el.tag}> attribute {attr!r} must be an integer, got {value!r}"
        ) from None


def _parse_params(el: ET.Element, task: str) -> dict:
    params = {}
    for p in el.findall("param"):
        pname = p.get("name")
        if not pname:
            raise SerializationError(
                f"<param> of task {task!r} requires a 'name' attribute"
            )
        params[pname] = _decode_value(p.get("value", "null"))
    return params


def _parse_graph(
    el: ET.Element, registry: UnitRegistry
) -> TaskGraph:
    graph = TaskGraph(name=el.get("name", "taskgraph"), registry=registry)
    for child in el:
        if child.tag == "task":
            name = child.get("name")
            unit = child.get("unit")
            if not name or not unit:
                raise SerializationError("<task> requires name and unit attributes")
            task = graph.add_task(name, unit, **_parse_params(child, name))
            declared = child.get("version")
            if declared and declared != task.descriptor.version:
                raise SerializationError(
                    f"task {name!r} requires unit {unit}@{declared} but the "
                    f"registry provides @{task.descriptor.version}"
                )
        elif child.tag == "group":
            name = child.get("name")
            policy = child.get("policy", "none")
            sub_el = child.find("subgraph")
            if name is None or sub_el is None:
                raise SerializationError("<group> requires a name and a <subgraph>")
            sub = _parse_graph(sub_el, registry)
            maps: dict[str, list[tuple[int, str, int]]] = {"in": [], "out": []}
            for m in child.findall("nodemapping"):
                direction, tname = m.get("direction"), m.get("task")
                if direction not in maps:
                    raise SerializationError(
                        f"<nodemapping> attribute 'direction' must be 'in' or "
                        f"'out', got {direction!r}"
                    )
                if not tname:
                    raise SerializationError(
                        "<nodemapping> requires a 'task' attribute"
                    )
                maps[direction].append(
                    (_int_attr(m, "external"), tname, _int_attr(m, "node"))
                )
            graph.add_group(
                name,
                sub,
                [(t, n) for _i, t, n in sorted(maps["in"])],
                [(t, n) for _i, t, n in sorted(maps["out"])],
                policy=policy,
            )
        elif child.tag == "connection":
            continue  # second pass below
        else:
            raise SerializationError(f"unexpected element <{child.tag}>")
    for child in el.findall("connection"):
        src, src_node = _parse_endpoint(child.get("source", ""))
        dst, dst_node = _parse_endpoint(child.get("dest", ""))
        graph.connect(src, src_node, dst, dst_node)
    return graph


def graph_from_xml(
    el: ET.Element, registry: Optional[UnitRegistry] = None
) -> TaskGraph:
    """Reconstruct a task graph from an XML element tree.

    Units are resolved against ``registry``; unit-version mismatches raise
    :class:`SerializationError` (the consistency guarantee the paper's
    on-demand download model provides).
    """
    if el.tag not in ("taskgraph", "subgraph"):
        raise SerializationError(f"expected <taskgraph>, got <{el.tag}>")
    return _parse_graph(el, registry if registry is not None else global_registry())


def graph_from_string(
    text: str, registry: Optional[UnitRegistry] = None
) -> TaskGraph:
    """Parse the XML wire format back into a task graph."""
    try:
        el = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"malformed task-graph XML: {exc}") from exc
    return graph_from_xml(el, registry)


def unit_names_in_xml(text: str) -> set[str]:
    """Unit names a task-graph XML references, without resolving them.

    This is what a receiving peer scans *before* it has any code: the set
    of modules to request from the repository ("the peer can request
    executable code for modules that are present within the connectivity
    graph").
    """
    try:
        el = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"malformed task-graph XML: {exc}") from exc
    names: set[str] = set()
    for task_el in el.iter("task"):
        unit = task_el.get("unit")
        if unit:
            names.add(unit)
    return names
