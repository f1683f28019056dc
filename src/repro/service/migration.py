"""Migrating one stage of a deployed p2p chain to another peer.

The paper (Case 2): "A check-pointing mechanism may also be employed to
migrate computation if necessary."  Protocol:

1. deploy a *paused* copy of the stage on the new peer;
2. rewire the predecessor stage to the new home (fresh data now buffers
   there);
3. wait ``settle`` for in-flight messages to land;
4. drain the old deployment (unit checkpoints + queued work; the old
   peer leaves a tombstone that forwards stragglers);
5. resume the new deployment with the migrated state, leftovers merged
   in iteration order.

Operates *on* a controller (duck-typed) rather than living inside it so
the controller stays a thin orchestrator.
"""

from __future__ import annotations

from ..simkernel import Event
from .errors import DeploymentError, MigrationError
from .worker import DeploymentSpec

__all__ = ["migrate_stage"]


def migrate_stage(controller, stage_index: int, new_worker: str, settle: float) -> Event:
    """Move one stage of the controller's last-deployed chain.

    Returns a process event yielding the new deployment id.
    """
    chain = controller._last_chain
    if not chain:
        raise MigrationError("no p2p chain has been deployed")
    if not 0 <= stage_index < len(chain):
        raise MigrationError(
            f"stage {stage_index} out of range 0..{len(chain) - 1}"
        )
    return controller.sim.process(
        _migrate_proc(controller, stage_index, new_worker, settle),
        name=f"migrate-stage-{stage_index}",
    )


def _migrate_proc(controller, stage_index: int, new_worker: str, settle: float):
    peer = controller.peer
    old_worker, old_spec = controller._last_chain[stage_index]
    new_dep_id = controller._next_deployment_id()
    new_spec = DeploymentSpec(
        deployment_id=new_dep_id,
        controller=peer.peer_id,
        xml=old_spec.xml,
        external_inputs=old_spec.external_inputs,
        output_spec=old_spec.output_spec,
        forward=old_spec.forward,
        paused=True,
    )
    _acked, dropped = yield from controller.deployer.deploy_all([(new_worker, new_spec)])
    if dropped:
        raise DeploymentError(dropped[0][2])
    owner = controller._ctx_of_dep.get(old_spec.deployment_id)
    if owner is not None:
        # Results from the new home belong to the run in flight.
        controller._ctx_of_dep[new_dep_id] = owner

    if stage_index > 0:
        pred_worker, pred_spec = controller._last_chain[stage_index - 1]
        peer.send(
            pred_worker,
            "triana-rewire",
            payload=(pred_spec.deployment_id, (new_worker, new_dep_id)),
            size_bytes=96,
        )
    yield controller.sim.timeout(settle)

    state, leftovers = yield controller.request_drain(
        old_worker, old_spec.deployment_id, (new_worker, new_dep_id)
    )

    peer.send(
        new_worker,
        "triana-resume",
        payload=(new_dep_id, state, leftovers),
        size_bytes=1024,
    )
    controller._last_chain[stage_index] = (new_worker, new_spec)
    return new_dep_id
