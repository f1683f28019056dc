"""The ``p2p`` pipeline — the paper's second distribution policy.

"Distributing the group vertically i.e. each unit in the group is
distributed onto a separate resource and data is passed between them":
each unit of a **linear** chain is placed on its own peer with
stage-to-stage forwards, iterations enter at stage 0 and flow
peer-to-peer; only the final stage reports back to the controller.
"""

from __future__ import annotations

from ...core.taskgraph import TaskGraph
from ...core.xml_io import graph_to_string
from ..errors import DeploymentError, SchedulingError
from ..worker import DeploymentSpec
from .base import DispatchContext, DistributionPolicy
from .registry import register_policy

__all__ = ["PipelinePolicy"]


@register_policy
class PipelinePolicy(DistributionPolicy):
    """Pipeline a linear chain across peers with stage-to-stage pipes."""

    name = "p2p"
    chained = True

    def deploy(self, ctx: DispatchContext, group, workers: list[str]):
        """Place each unit of the group on its own peer, piped in order."""
        order = group.graph.topological_order()
        self._check_linear_chain(group, order)
        dep_ids = [ctx.next_deployment_id() for _ in order]
        specs = []
        for i, task_name in enumerate(order):
            task = group.graph.task(task_name)
            stage = TaskGraph(
                name=f"{group.name}/{task_name}", registry=group.graph.registry
            )
            stage.add_task(task_name, task.unit_name, **task.params)
            external_inputs = tuple((task_name, n) for n in range(task.num_inputs))
            if i + 1 < len(order):
                conn = [
                    c
                    for c in group.graph.connections
                    if c.src == task_name and c.dst == order[i + 1]
                ][0]
                output_spec = ((task_name, conn.src_node),)
                forward = (workers[(i + 1) % len(workers)], dep_ids[i + 1])
            else:
                output_spec = tuple(group.output_map)
                forward = None
            specs.append(
                (
                    workers[i % len(workers)],
                    DeploymentSpec(
                        deployment_id=dep_ids[i],
                        controller=ctx.peer.peer_id,
                        xml=graph_to_string(stage),
                        external_inputs=external_inputs,
                        output_spec=output_spec,
                        forward=forward,
                        heartbeat_interval=ctx.detector.heartbeat_interval,
                    ),
                )
            )
        dropped = yield from ctx.deploy(specs)
        if dropped:  # a chain has no stage to spare
            raise DeploymentError(f"p2p chain {group.name!r} lost a stage: {dropped[0][2]}")

    def dispatch(self, ctx: DispatchContext, iteration: int, inputs: list) -> None:
        # Everything enters at stage 0 and flows peer-to-peer.
        ctx.send_exec(ctx.replica_hosts[0], ctx.dep_ids[0], [(iteration, inputs)])

    def _check_linear_chain(self, group, order: list[str]) -> None:
        for name in order:
            if len(group.graph.out_connections(name)) > 1 or len(
                group.graph.in_connections(name)
            ) > 1:
                raise SchedulingError(
                    f"p2p policy requires a linear chain; task {name!r} in group "
                    f"{group.name!r} has fan-in/fan-out"
                )
        for a, b in zip(order, order[1:]):
            if not any(c.src == a and c.dst == b for c in group.graph.connections):
                raise SchedulingError(
                    f"p2p policy requires a connected chain; {a!r} and {b!r} "
                    "are not linked"
                )
