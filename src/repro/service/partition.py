"""Partitioning a task graph around its distributed group(s).

"In terms of our workflow example we could execute the GroupTask on a
remote Triana service, with the data being automatically sent from the
Wave to the Gaussian and returned from the FFT to the Grapher."

One partitioner lives here, :func:`partition_stages`: N policy-carrying
groups in topological order interleaved with N+1 local zones, so a graph
may distribute several groups in one run.  Zone ``k`` holds every local
task whose deepest group dependency is group ``k-1`` (zone 0 depends on
no group); connections are classified so the controller can route
payloads between zones and groups.  The paper's one-group example is the
N = 1 case: zone 0 is upstream of the group, zone 1 downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.taskgraph import Connection, GroupTask, TaskGraph
from .errors import SchedulingError

__all__ = [
    "StagedPartition",
    "StageRouter",
    "partition_stages",
    "find_distributable_groups",
]


def find_distributable_groups(graph: TaskGraph) -> list[GroupTask]:
    """Every policy-carrying group, in deterministic topological order."""
    order = {name: i for i, name in enumerate(graph.topological_order())}
    groups = [g for g in graph.groups() if g.policy != "none"]
    return sorted(groups, key=lambda g: order[g.name])


@dataclass
class StagedPartition:
    """N groups in topological order, interleaved with N+1 local zones.

    ``zones[0]`` depends on no group and is stepped up-front for every
    iteration; ``zones[k]`` (k >= 1) consumes group ``k-1``'s results and
    is stepped as they arrive.  ``dispatch_stage[name]`` says during which
    zone's stage a group's inputs become complete (always <= its own
    index, so every group is in flight before its collection stage).
    """

    groups: list[GroupTask]
    zones: list[TaskGraph]
    #: local (non-policy) task name → zone index
    zone_of: dict[str, int] = field(default_factory=dict)
    #: group name → inbound connections, ordered by group input node
    to_group: dict[str, list[Connection]] = field(default_factory=dict)
    #: group name → connections feeding local tasks
    from_group: dict[str, list[Connection]] = field(default_factory=dict)
    #: local → local connections that cross zone boundaries
    cross: list[Connection] = field(default_factory=list)
    #: group name → stage index at which it is dispatched
    dispatch_stage: dict[str, int] = field(default_factory=dict)

    def zone_external_inputs(self, zone: int) -> list[tuple[str, int]]:
        """Externally-fed ``(task, node)`` inputs of one zone's engine."""
        external = {
            (c.dst, c.dst_node)
            for c in self.cross
            if self.zone_of[c.dst] == zone
        }
        for conns in self.from_group.values():
            external |= {
                (c.dst, c.dst_node)
                for c in conns
                if self.zone_of[c.dst] == zone
            }
        return sorted(external)

    def groups_at_stage(self, stage: int) -> list[int]:
        """Indices of groups whose inputs complete at ``stage``."""
        return [
            i
            for i, g in enumerate(self.groups)
            if self.dispatch_stage[g.name] == stage
        ]


def _copy_into(zone: TaskGraph, graph: TaskGraph, names: list[str]) -> None:
    for name in names:
        t = graph.task(name)
        if isinstance(t, GroupTask):
            zone.add_group(name, t.graph.copy(), t.input_map, t.output_map, "none")
        else:
            zone.add_task(name, t.unit_name, **t.params)


def partition_stages(graph: TaskGraph) -> StagedPartition:
    """Split ``graph`` into topologically-ordered groups and local zones.

    Every policy-carrying group becomes a distribution stage; every local
    task lands in the zone just after the deepest group it (transitively)
    depends on.  A graph without policy groups yields one zone and no
    groups (the caller runs it locally).
    """
    groups = find_distributable_groups(graph)
    index = {g.name: i for i, g in enumerate(groups)}

    descendants = {g.name: graph.descendants(g.name) for g in groups}

    zone_of: dict[str, int] = {}
    for name in graph.tasks:
        if name in index:
            continue
        depths = [i for g, i in index.items() if name in descendants[g]]
        zone_of[name] = 1 + max(depths) if depths else 0

    zones = [
        TaskGraph(name=f"{graph.name}/zone{k}", registry=graph.registry)
        for k in range(len(groups) + 1)
    ]
    for k, zone in enumerate(zones):
        _copy_into(zone, graph, sorted(n for n, z in zone_of.items() if z == k))

    part = StagedPartition(groups=groups, zones=zones, zone_of=zone_of)
    part.to_group = {g.name: [] for g in groups}
    part.from_group = {g.name: [] for g in groups}
    for c in graph.connections:
        if c.dst in index:
            part.to_group[c.dst].append(c)
        elif c.src in index:
            part.from_group[c.src].append(c)
        elif zone_of[c.src] == zone_of[c.dst]:
            zones[zone_of[c.src]].connect(c.src, c.src_node, c.dst, c.dst_node)
        else:  # a DAG can only cross forward, zone_of[src] < zone_of[dst]
            part.cross.append(c)

    for g in groups:
        conns = part.to_group[g.name]
        conns.sort(key=lambda c: c.dst_node)
        if len(conns) != g.num_inputs:
            raise SchedulingError(
                f"group {g.name!r} has {g.num_inputs} inputs but "
                f"{len(conns)} are fed"
            )
        # The stage at which all of this group's inputs are available:
        # zone k's outputs appear during stage k, group j's during j+1.
        part.dispatch_stage[g.name] = max(
            (
                index[c.src] + 1 if c.src in index else zone_of[c.src]
                for c in conns
            ),
            default=0,
        )
    return part


class StageRouter:
    """Routes boundary values between local zones and groups during a run.

    Every boundary value an iteration produces — a local output feeding a
    group or a later zone, or a group's output node — is stashed keyed by
    its *source* endpoint, then handed over when the consuming group is
    dispatched or the consuming zone is stepped.  The plan says how many
    connections read each endpoint, so the last reader takes the value
    out: the router holds what is still owed to someone, not the run.
    """

    def __init__(self, plan: StagedPartition):
        self.plan = plan
        #: iteration → source endpoint → [value, reads still owed]
        self._vals: dict[int, dict[tuple[str, int], list]] = {}
        #: source endpoint → how many connections consume it
        self._readers: dict[tuple[str, int], int] = {}
        for conns in (*plan.to_group.values(), *plan.from_group.values(), plan.cross):
            for c in conns:
                src = (c.src, c.src_node)
                self._readers[src] = self._readers.get(src, 0) + 1
        #: per zone: externally-fed (dst, dst_node) → producing endpoint
        self._feeds: list[dict[tuple[str, int], tuple[str, int]]] = [
            {} for _ in plan.zones
        ]
        for conns in (plan.cross, *plan.from_group.values()):
            for c in conns:
                self._feeds[plan.zone_of[c.dst]][(c.dst, c.dst_node)] = (
                    c.src,
                    c.src_node,
                )

    def _stash(self, iteration: int, src: tuple[str, int], value) -> None:
        readers = self._readers.get(src, 0)
        if readers:
            self._vals.setdefault(iteration, {})[src] = [value, readers]

    def _take(self, iteration: int, src: tuple[str, int]):
        vals = self._vals[iteration]
        slot = vals[src]
        slot[1] -= 1
        if not slot[1]:
            del vals[src]
            if not vals:
                del self._vals[iteration]
        return slot[0]

    def stash_zone(self, zone: int, iteration: int, outputs) -> None:
        """Record one zone step's boundary outputs for ``iteration``."""
        for t, n in self._readers:
            if self.plan.zone_of.get(t) == zone:
                self._stash(iteration, (t, n), outputs[t][n])

    def stash_group(self, group_name: str, iteration: int, outputs) -> None:
        """Record a collected group result's output nodes."""
        for n, value in enumerate(outputs):
            self._stash(iteration, (group_name, n), value)

    def group_inputs(self, group: GroupTask, iteration: int) -> list:
        """Take the ordered input payloads to dispatch into ``group``."""
        return [
            self._take(iteration, (c.src, c.src_node))
            for c in self.plan.to_group[group.name]
        ]

    def zone_externals(self, zone: int, iteration: int) -> dict:
        """Take the external-input dict for stepping one zone's engine."""
        return {
            dst: self._take(iteration, src)
            for dst, src in self._feeds[zone].items()
        }
