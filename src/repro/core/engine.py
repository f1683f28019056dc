"""The local data-flow execution engine.

"In the case where no local resource manager is available, the Triana
server component can itself be used to launch the application" — this is
that component's execution core.  The engine takes a (possibly grouped)
task graph, flattens it, instantiates one unit per task, and fires units
in topological order once per iteration, moving payloads along
connections.

It also provides:

* **external inputs** — a deployed group sub-graph has boundary input
  nodes fed from the network rather than from local connections; the
  engine accepts per-iteration values for them (:meth:`LocalEngine.step`);
* **probes** — observers attached to any output node (how Fig. 2's
  grapher output is captured programmatically);
* **cost accounting** — modelled flops and bytes per task, reused by the
  simulated execution plane;
* **shared replicas** — an input the controller dealt to several workers
  in this process (replicated verification on the simulator) is marked
  with :func:`share`; a unit that keeps no per-run state computes it
  once and every other engine reuses the outputs.  Only host work is
  saved: every firing is still counted and charged its modelled flops.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .errors import GraphError, UnitError
from .taskgraph import TaskGraph
from .units import Unit

__all__ = ["Probe", "RunStats", "LocalEngine", "share"]


@dataclass
class Probe:
    """Collects every payload seen on one task output node."""

    task: str
    node: int = 0
    values: list[Any] = field(default_factory=list)

    def __call__(self, value: Any) -> None:
        self.values.append(value)

    @property
    def last(self) -> Any:
        if not self.values:
            raise UnitError(f"probe {self.task}:{self.node} saw no data")
        return self.values[-1]


@dataclass
class RunStats:
    """Accounting for one engine run."""

    iterations: int = 0
    firings: int = 0
    modelled_flops: float = 0.0
    bytes_moved: int = 0
    per_task_flops: dict[str, float] = field(default_factory=dict)


def _payload_bytes(value: Any) -> int:
    return value.payload_nbytes() if hasattr(value, "payload_nbytes") else 8


# -- replicas computed once ------------------------------------------------------
#: ``id(value)`` -> weak reference to a value dealt to more than one worker
#: in this process; an entry dies with its value.
_shared: dict[int, weakref.ref] = {}
#: ``(unit class, input ids)`` -> ``(params, input refs, outputs)`` of a
#: stateless firing on shared inputs; an entry dies with its first input.
_memo: dict[tuple, tuple] = {}


def _drop_shared(key: int, ref: weakref.ref) -> None:
    if _shared.get(key) is ref:  # else a newer value took the id
        del _shared[key]


def _drop_memo(key: tuple, ref: weakref.ref) -> None:
    entry = _memo.get(key)
    if entry is not None and any(r is ref for r in entry[1]):
        del _memo[key]


def share(values: Iterable[Any]) -> None:
    """Mark ``values`` as dealt to more than one worker in this process.

    Replicated verification sends one input object to several engines;
    a stateless unit (see :class:`~repro.core.units.Unit`) then computes
    it once and the other replicas reuse the outputs, which are shared in
    turn.  A value that cannot be weakly referenced is never shared.
    Over a real transport each worker decodes its own copy, so nothing
    it computes is ever found here.
    """
    for value in values:
        if _is_shared(value):
            continue
        key = id(value)
        try:
            _shared[key] = weakref.ref(value, lambda r, key=key: _drop_shared(key, r))
        except TypeError:
            pass


def _is_shared(value: Any) -> bool:
    ref = _shared.get(id(value))
    return ref is not None and ref() is value


def _process_shared(unit: Unit, inputs: list) -> Any:
    """``unit.process(inputs)``, computed once per live set of shared inputs."""
    key = (type(unit), tuple(map(id, inputs)))
    entry = _memo.get(key)
    if entry is not None:
        params, refs, outputs = entry
        if params == unit.params and all(r() is v for r, v in zip(refs, inputs)):
            return outputs
    outputs = unit.process(inputs)
    if outputs is None:
        return outputs
    outputs = tuple(outputs)
    if any(o is v for o in outputs for v in inputs):
        # An entry holding its own input would never die.
        return outputs
    refs = tuple(
        weakref.ref(v, lambda r, key=key: _drop_memo(key, r)) for v in inputs
    )
    _memo[key] = (unit.params, refs, outputs)
    share(outputs)
    return outputs


def _memoizable(cls: type[Unit], num_inputs: int) -> bool:
    """A unit with inputs, no per-run state (``reset`` not overridden) and
    no sandbox permission is a pure function of its inputs and params."""
    return num_inputs > 0 and cls.reset is Unit.reset and not cls.REQUIRED_PERMISSIONS


class LocalEngine:
    """Executes a task graph in-process.

    Parameters
    ----------
    graph:
        The graph to execute; groups are flattened automatically.
    external_inputs:
        ``(task, node)`` pairs (flattened names) that will be fed from
        outside per iteration instead of by a local connection.
    """

    def __init__(
        self,
        graph: TaskGraph,
        external_inputs: Iterable[tuple[str, int]] = (),
    ):
        self.graph = graph.flattened()
        self.external = {(t, int(n)) for t, n in external_inputs}
        self.order = self.graph.topological_order()  # raises on cycles
        self._check_fedness()
        self.units: dict[str, Unit] = {
            name: task.instantiate() for name, task in self.graph.tasks.items()
        }
        self.probes: list[Probe] = []
        self.stats = RunStats()
        self._sink_outputs: dict[str, list[Any]] = {}
        # The firing schedule, compiled once: nothing edits the graph or
        # the units after construction, so ``step`` never asks it again.
        # The last field says whether a firing on shared inputs may reuse
        # another replica's outputs.
        self._task_probes: dict[str, list[Probe]] = {name: [] for name in self.order}
        self._plan = []
        for name in self.order:
            task = self.graph.task(name)
            wiring = [
                (c.src_node, (c.dst, c.dst_node)) for c in self.graph.out_connections(name)
            ]
            self._plan.append((
                name, self.units[name], task.unit_name,
                [(name, node) for node in range(task.num_inputs)], task.num_outputs,
                wiring, not wiring and task.num_inputs > 0, self._task_probes[name],
                _memoizable(type(self.units[name]), task.num_inputs),
            ))

    def _check_fedness(self) -> None:
        for t, n in self.external:
            if t not in self.graph.tasks:
                raise GraphError(f"external input names unknown task {t!r}")
            if not 0 <= n < self.graph.task(t).num_inputs:
                raise GraphError(f"external input {t}:{n} out of range")
        for name, task in self.graph.tasks.items():
            fed = {c.dst_node for c in self.graph.in_connections(name)}
            overlap = fed & {n for t, n in self.external if t == name}
            if overlap:
                raise GraphError(
                    f"input {name}:{sorted(overlap)} is both connected and external"
                )
            fed |= {n for t, n in self.external if t == name}
            missing = set(range(task.num_inputs)) - fed
            if fed and missing:
                raise GraphError(
                    f"task {name!r} has unconnected input nodes {sorted(missing)}"
                )

    # -- probes -------------------------------------------------------------
    def probe_candidates(self, task: str) -> list[str]:
        """The tasks a probe on ``task`` could mean: itself, or else every
        flattened task named ``.../task``."""
        if task in self.graph.tasks:
            return [task]
        return [t for t in self.graph.tasks if t.endswith(f"/{task}")]

    def attach_probe(self, task: str, node: int = 0) -> Probe:
        """Observe the given output node; returns the collecting probe."""
        # Accept unflattened names like "FFT" only if unambiguous.
        matches = self.probe_candidates(task)
        if len(matches) != 1:
            raise GraphError(
                f"probe target {task!r} not found in flattened graph "
                f"(candidates: {matches})"
            )
        task = matches[0]
        t = self.graph.task(task)
        if not 0 <= node < t.num_outputs:
            raise GraphError(f"{task!r} has no output node {node}")
        probe = Probe(task, node)
        self.probes.append(probe)
        self._task_probes[task].append(probe)
        return probe

    # -- execution ------------------------------------------------------------
    def run(self, iterations: int = 1) -> dict[str, list[Any]]:
        """Run the graph ``iterations`` times (no external inputs).

        Returns a mapping of sink-task name to the list of payloads its
        *inputs* received on the final iteration — the natural "result" of
        a workflow whose sinks are display/output units.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        for _ in range(iterations):
            self.step()
        return dict(self._sink_outputs)

    def step(
        self, external: Optional[dict[tuple[str, int], Any]] = None
    ) -> dict[str, list[Any]]:
        """Run one iteration; returns every task's output payload list.

        ``external`` must supply a value for each declared external input.
        """
        external = external or {}
        if external.keys() != self.external:
            missing = self.external - set(external)
            if missing:
                raise GraphError(f"missing external inputs: {sorted(missing)}")
            unknown = set(external) - self.external
            raise GraphError(f"undeclared external inputs supplied: {sorted(unknown)}")

        pending: dict[tuple[str, int], Any] = dict(external)
        outputs_map: dict[str, list[Any]] = {}
        sink_outputs: dict[str, list[Any]] = {}
        self._sink_outputs = sink_outputs
        stats = self.stats
        per_task_flops = stats.per_task_flops
        for (
            name, unit, unit_name, in_keys, num_outputs, wiring, is_sink, probes, memo,
        ) in self._plan:
            inputs = []
            for key in in_keys:
                if key not in pending:
                    raise GraphError(
                        f"task {name!r} fired before input {key[1]} arrived; "
                        "graph is under-connected"
                    )
                inputs.append(pending.pop(key))
            in_bytes = sum(_payload_bytes(v) for v in inputs)
            if _shared and memo and all(map(_is_shared, inputs)):
                outputs = _process_shared(unit, inputs)
            else:
                outputs = unit.process(inputs)
            if outputs is None:
                outputs = []
            if len(outputs) != num_outputs:
                raise UnitError(
                    f"unit {unit_name} returned {len(outputs)} outputs, "
                    f"declared {num_outputs}"
                )
            outputs_map[name] = list(outputs)
            stats.firings += 1
            flops = unit.estimated_flops(in_bytes)
            stats.modelled_flops += flops
            per_task_flops[name] = per_task_flops.get(name, 0.0) + flops
            for probe in probes:
                probe(outputs[probe.node])
            for src_node, dst_key in wiring:
                value = outputs[src_node]
                pending[dst_key] = value
                stats.bytes_moved += _payload_bytes(value)
            if is_sink:
                sink_outputs.setdefault(name, []).extend(inputs)
        stats.iterations += 1
        return outputs_map
