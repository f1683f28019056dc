"""Task graphs: the unit-of-work description a Triana peer interprets.

A :class:`TaskGraph` is a named collection of :class:`Task` instances and
typed :class:`Connection` objects.  Tasks reference units by registry name
(the graph itself carries **no executable code** — peers fetch that on
demand, which is the paper's code-mobility model: "Transmitting the
connectivity graph to nodes has a limited overhead – as the graph itself
is a text file").

Grouping: "Tools have to be grouped in order to be distributed" — a
:class:`GroupTask` embeds a whole sub-graph behind external input/output
nodes, carries a distribution policy name, and is the unit of distribution
used by :mod:`repro.core.distribution`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Type

from .errors import GraphError, TypeMismatchError
from .registry import UnitRegistry, global_registry
from .types import TrianaType, is_compatible
from .units import Unit

__all__ = [
    "Task",
    "GroupTask",
    "Connection",
    "TaskGraph",
    "GROUP_POLICIES",
    "register_policy_name",
    "known_policy_names",
]

#: Built-in distribution policies a group may carry.  ``none`` = run in
#: place; ``parallel`` = farm copies of the group across peers; ``p2p`` =
#: place each inner task on its own peer and pipe data between them
#: (§3.3); ``chunked`` = farm variant batching k iterations per message.
#: Third-party policies extend the valid set via
#: :func:`register_policy_name` (done automatically by
#: ``repro.service.policies.PolicyRegistry.register``).
GROUP_POLICIES = ("none", "parallel", "p2p", "chunked")

_known_policy_names: set[str] = set(GROUP_POLICIES)


def register_policy_name(name: str) -> None:
    """Declare ``name`` a valid :class:`GroupTask` distribution policy.

    The core layer validates policy *names* only; the behaviour behind a
    name lives in ``repro.service.policies`` (which calls this on
    registration) so graphs can be built and serialized without the
    service layer imported.
    """
    if not name or not isinstance(name, str):
        raise GraphError(f"invalid policy name {name!r}")
    _known_policy_names.add(name)


def known_policy_names() -> tuple[str, ...]:
    """Every currently-valid policy name, sorted."""
    return tuple(sorted(_known_policy_names))


def _clone_task(task: "Task", new_name: str) -> "Task":
    """Copy a plain task under a (possibly path-qualified) new name.

    Bypasses ``Task.__init__`` name validation because flattened names
    legitimately contain ``/`` separators.
    """
    new = Task.__new__(Task)
    new.name = new_name
    new.registry = task.registry
    new.descriptor = task.descriptor
    new.unit_name = task.unit_name
    new.params = dict(task.params)
    return new


@dataclass(frozen=True)
class Connection:
    """A directed, typed data channel between two task nodes."""

    src: str
    src_node: int
    dst: str
    dst_node: int

    def label(self) -> str:
        return f"{self.src}:{self.src_node}->{self.dst}:{self.dst_node}"


class Task:
    """One placed instance of a unit inside a task graph."""

    def __init__(
        self,
        name: str,
        unit_name: str,
        params: Optional[dict] = None,
        registry: Optional[UnitRegistry] = None,
    ):
        if not name or "/" in name or ":" in name:
            raise GraphError(f"invalid task name {name!r} ('/' and ':' are reserved)")
        self.name = name
        self.registry = registry if registry is not None else global_registry()
        self.descriptor = self.registry.lookup(unit_name)
        self.unit_name = self.descriptor.name
        self.params = dict(params or {})
        # Fail fast on bad parameters by instantiating once.
        self.descriptor.cls(**self.params)

    # -- node geometry -------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return self.descriptor.cls.NUM_INPUTS

    @property
    def num_outputs(self) -> int:
        return self.descriptor.cls.NUM_OUTPUTS

    def input_types_at(self, node: int) -> list[Type[TrianaType]]:
        return self.descriptor.cls.input_types_at(node)

    def output_types_at(self, node: int) -> list[Type[TrianaType]]:
        return self.descriptor.cls.output_types_at(node)

    def instantiate(self) -> Unit:
        """Create a fresh unit instance for execution."""
        return self.descriptor.cls(**self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Task({self.name!r}, unit={self.unit_name!r})"


class GroupTask(Task):
    """An aggregate task hiding a sub-graph behind mapped external nodes.

    Parameters
    ----------
    name:
        Task name in the enclosing graph.
    graph:
        The inner :class:`TaskGraph`.
    input_map / output_map:
        One ``(inner_task_name, inner_node)`` pair per external node, in
        external-node order.
    policy:
        Distribution policy name; built-ins are :data:`GROUP_POLICIES`,
        and plugins extend the set via :func:`register_policy_name`.
    """

    def __init__(
        self,
        name: str,
        graph: "TaskGraph",
        input_map: Iterable[tuple[str, int]],
        output_map: Iterable[tuple[str, int]],
        policy: str = "none",
    ):
        if not name or "/" in name or ":" in name:
            raise GraphError(f"invalid group name {name!r}")
        if policy not in _known_policy_names:
            raise GraphError(
                f"unknown policy {policy!r}; valid: {known_policy_names()}"
            )
        self.name = name
        self.graph = graph
        self.registry = graph.registry
        self.policy = policy
        self.input_map = [tuple(m) for m in input_map]
        self.output_map = [tuple(m) for m in output_map]
        for task_name, node in self.input_map:
            inner = graph.task(task_name)
            if not 0 <= node < inner.num_inputs:
                raise GraphError(
                    f"group {name!r}: mapping targets missing input "
                    f"{task_name}:{node}"
                )
        for task_name, node in self.output_map:
            inner = graph.task(task_name)
            if not 0 <= node < inner.num_outputs:
                raise GraphError(
                    f"group {name!r}: mapping targets missing output "
                    f"{task_name}:{node}"
                )

    @property
    def num_inputs(self) -> int:
        return len(self.input_map)

    @property
    def num_outputs(self) -> int:
        return len(self.output_map)

    def input_types_at(self, node: int) -> list[Type[TrianaType]]:
        task_name, inner_node = self.input_map[node]
        return self.graph.task(task_name).input_types_at(inner_node)

    def output_types_at(self, node: int) -> list[Type[TrianaType]]:
        task_name, inner_node = self.output_map[node]
        return self.graph.task(task_name).output_types_at(inner_node)

    def instantiate(self) -> Unit:
        raise GraphError(
            f"group {self.name!r} cannot be instantiated directly; "
            "flatten the graph or distribute the group"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroupTask({self.name!r}, tasks={len(self.graph.tasks)}, "
            f"policy={self.policy!r})"
        )


class TaskGraph:
    """A named DAG of tasks and typed connections."""

    def __init__(self, name: str = "taskgraph", registry: Optional[UnitRegistry] = None):
        self.name = name
        self.registry = registry if registry is not None else global_registry()
        self.tasks: dict[str, Task] = {}
        self.connections: list[Connection] = []

    # -- construction -----------------------------------------------------------
    def add_task(self, name: str, unit: str, **params) -> Task:
        """Place a unit instance in the graph under ``name``."""
        if name in self.tasks:
            raise GraphError(f"duplicate task name {name!r}")
        task = Task(name, unit, params, registry=self.registry)
        self.tasks[name] = task
        return task

    def add_group(
        self,
        name: str,
        graph: "TaskGraph",
        input_map: Iterable[tuple[str, int]],
        output_map: Iterable[tuple[str, int]],
        policy: str = "none",
    ) -> GroupTask:
        """Place a sub-graph as a single aggregate task."""
        if name in self.tasks:
            raise GraphError(f"duplicate task name {name!r}")
        group = GroupTask(name, graph, input_map, output_map, policy)
        self.tasks[name] = group
        return group

    def group_tasks(
        self,
        name: str,
        members: Iterable[str],
        policy: str = "none",
    ) -> GroupTask:
        """Collapse existing tasks ``members`` into a group in place.

        Connections internal to the member set move inside the group;
        boundary connections are re-routed through fresh external nodes in
        a deterministic order (inputs first by original connection order,
        then outputs).  This is the programmatic equivalent of selecting
        units in the GUI and pressing "group".
        """
        member_set = set(members)
        missing = member_set - set(self.tasks)
        if missing:
            raise GraphError(f"cannot group unknown tasks: {sorted(missing)}")
        if name in self.tasks and name not in member_set:
            raise GraphError(f"duplicate task name {name!r}")
        for m in member_set:
            if isinstance(self.tasks[m], GroupTask):
                raise GraphError(f"nested grouping of group {m!r} unsupported here")

        inner = TaskGraph(name=name, registry=self.registry)
        for m in sorted(member_set):
            src_task = self.tasks[m]
            inner.add_task(m, src_task.unit_name, **src_task.params)

        internal, boundary_in, boundary_out, outside = [], [], [], []
        for conn in self.connections:
            s_in, d_in = conn.src in member_set, conn.dst in member_set
            if s_in and d_in:
                internal.append(conn)
            elif d_in:
                boundary_in.append(conn)
            elif s_in:
                boundary_out.append(conn)
            else:
                outside.append(conn)
        for conn in internal:
            inner.connect(conn.src, conn.src_node, conn.dst, conn.dst_node)

        input_map = [(c.dst, c.dst_node) for c in boundary_in]
        output_map: list[tuple[str, int]] = []
        out_index: dict[tuple[str, int], int] = {}
        for c in boundary_out:
            key = (c.src, c.src_node)
            if key not in out_index:
                out_index[key] = len(output_map)
                output_map.append(key)

        for m in member_set:
            del self.tasks[m]
        self.connections = outside
        group = self.add_group(name, inner, input_map, output_map, policy)
        for ext_node, c in enumerate(boundary_in):
            self.connect(c.src, c.src_node, name, ext_node)
        for c in boundary_out:
            self.connect(name, out_index[(c.src, c.src_node)], c.dst, c.dst_node)
        return group

    def connect(self, src: str, src_node: int, dst: str, dst_node: int) -> Connection:
        """Wire an output node to an input node, type-checking the join."""
        for tname in (src, dst):
            if tname not in self.tasks:
                raise GraphError(f"unknown task {tname!r} in connection")
        s, d = self.tasks[src], self.tasks[dst]
        if not 0 <= src_node < s.num_outputs:
            raise GraphError(
                f"{src!r} has no output node {src_node} (has {s.num_outputs})"
            )
        if not 0 <= dst_node < d.num_inputs:
            raise GraphError(
                f"{dst!r} has no input node {dst_node} (has {d.num_inputs})"
            )
        for existing in self.connections:
            if existing.dst == dst and existing.dst_node == dst_node:
                raise GraphError(
                    f"input {dst}:{dst_node} already fed by {existing.label()}"
                )
        out_types = s.output_types_at(src_node)
        in_types = d.input_types_at(dst_node)
        if not is_compatible(out_types, in_types):
            raise TypeMismatchError(
                f"cannot connect {src}:{src_node} "
                f"({[t.__name__ for t in out_types]}) to {dst}:{dst_node} "
                f"({[t.__name__ for t in in_types]})"
            )
        conn = Connection(src, src_node, dst, dst_node)
        self.connections.append(conn)
        return conn

    def disconnect(self, conn: Connection) -> None:
        try:
            self.connections.remove(conn)
        except ValueError:
            raise GraphError(f"connection {conn.label()} not in graph") from None

    # -- lookup ------------------------------------------------------------------
    def task(self, name: str) -> Task:
        if name not in self.tasks:
            raise GraphError(f"no task {name!r} in graph {self.name!r}")
        return self.tasks[name]

    def groups(self) -> list[GroupTask]:
        return [t for t in self.tasks.values() if isinstance(t, GroupTask)]

    def in_connections(self, name: str) -> list[Connection]:
        return [c for c in self.connections if c.dst == name]

    def out_connections(self, name: str) -> list[Connection]:
        return [c for c in self.connections if c.src == name]

    def sources(self) -> list[str]:
        """Tasks with no incoming connections."""
        fed = {c.dst for c in self.connections}
        return [n for n in self.tasks if n not in fed]

    def sinks(self) -> list[str]:
        """Tasks with no outgoing connections."""
        feeding = {c.src for c in self.connections}
        return [n for n in self.tasks if n not in feeding]

    # -- validation & ordering -----------------------------------------------------
    def _successors(self) -> dict[str, set[str]]:
        succ: dict[str, set[str]] = {name: set() for name in self.tasks}
        for c in self.connections:
            succ[c.src].add(c.dst)
        return succ

    def validate(self) -> None:
        """Raise :class:`GraphError` on cycles or under-fed input nodes."""
        self.topological_order()
        for name, task in self.tasks.items():
            fed = {c.dst_node for c in self.in_connections(name)}
            missing = set(range(task.num_inputs)) - fed
            # Pure sources have no inputs; partially fed units are an error.
            if fed and missing:
                raise GraphError(
                    f"task {name!r} has unconnected input nodes {sorted(missing)}"
                )
        for t in self.groups():
            t.graph.validate()

    def topological_order(self) -> list[str]:
        """Deterministic topological ordering of task names.

        Kahn's algorithm over a heap of ready names: among the tasks whose
        predecessors are all placed, the smallest name goes next.
        """
        succ = self._successors()
        waiting = dict.fromkeys(succ, 0)
        for dsts in succ.values():
            for dst in dsts:
                waiting[dst] += 1
        ready = [name for name, n in waiting.items() if not n]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for dst in succ[name]:
                waiting[dst] -= 1
                if not waiting[dst]:
                    heapq.heappush(ready, dst)
        stuck = sorted(name for name, n in waiting.items() if n)
        if stuck:
            raise GraphError(
                f"task graph contains a cycle; tasks on or fed by it: {stuck}"
            )
        return order

    def descendants(self, name: str) -> set[str]:
        """Every task reachable from ``name`` (``name`` itself excluded)."""
        self.task(name)
        succ = self._successors()
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            for dst in succ[frontier.pop()] - seen:
                seen.add(dst)
                frontier.append(dst)
        seen.discard(name)
        return seen

    # -- flattening ------------------------------------------------------------------
    def flattened(self) -> "TaskGraph":
        """Expand every group into its member tasks (recursively).

        Inner task names become ``group/inner``.  The result contains no
        :class:`GroupTask` and is what the local engine executes.
        """
        flat = TaskGraph(name=self.name, registry=self.registry)
        for name, task in self.tasks.items():
            if isinstance(task, GroupTask):
                inner_flat = task.graph.flattened()
                for iname, itask in inner_flat.tasks.items():
                    flat.tasks[f"{name}/{iname}"] = _clone_task(itask, f"{name}/{iname}")
                for c in inner_flat.connections:
                    flat.connections.append(
                        Connection(f"{name}/{c.src}", c.src_node, f"{name}/{c.dst}", c.dst_node)
                    )
            else:
                flat.tasks[name] = _clone_task(task, name)

        def walk_in(graph: "TaskGraph", tname: str, node: int, prefix: str) -> tuple[str, int]:
            task = graph.tasks[tname]
            if isinstance(task, GroupTask):
                inner_name, inner_node = task.input_map[node]
                return walk_in(task.graph, inner_name, inner_node, f"{prefix}{tname}/")
            return f"{prefix}{tname}", node

        def walk_out(graph: "TaskGraph", tname: str, node: int, prefix: str) -> tuple[str, int]:
            task = graph.tasks[tname]
            if isinstance(task, GroupTask):
                inner_name, inner_node = task.output_map[node]
                return walk_out(task.graph, inner_name, inner_node, f"{prefix}{tname}/")
            return f"{prefix}{tname}", node

        for conn in self.connections:
            src, src_node = walk_out(self, conn.src, conn.src_node, "")
            dst, dst_node = walk_in(self, conn.dst, conn.dst_node, "")
            flat.connections.append(Connection(src, src_node, dst, dst_node))
        return flat

    def copy(self) -> "TaskGraph":
        """Structural copy sharing unit classes but not mutable state."""
        dup = TaskGraph(name=self.name, registry=self.registry)
        for name, task in self.tasks.items():
            if isinstance(task, GroupTask):
                dup.tasks[name] = GroupTask(
                    name,
                    task.graph.copy(),
                    task.input_map,
                    task.output_map,
                    task.policy,
                )
            else:
                dup.tasks[name] = _clone_task(task, name)
        for c in self.connections:
            dup.connections.append(Connection(c.src, c.src_node, c.dst, c.dst_node))
        return dup

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskGraph({self.name!r}, tasks={len(self.tasks)}, "
            f"connections={len(self.connections)})"
        )
