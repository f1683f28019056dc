"""Deploy-with-retry: shipping sub-graph XML to worker peers.

Transport-agnostic: deploys are plain protocol messages through the
owning peer, so the same retry/ack machinery drives workers on the
simulated fabric and across OS processes over TCP alike.

Owns the ``triana-deploy`` / ``deploy-ack`` exchange so neither the
controller nor the policies re-implement ack bookkeeping.  Policies reach
it through :meth:`~repro.service.policies.DispatchContext.deploy`.

Also owns the **replica preseed** phase (``module-preseed`` /
``preseed-ack``): before any group deploys, the controller can ask k
workers to warm their module caches.  Those workers then advertise as
replicas, so the deploy-time fetch storm drains through peer uplinks
instead of serialising on the repository's (see docs/performance.md,
"Module distribution").
"""

from __future__ import annotations

from typing import Iterable

from ..p2p.network import Message
from ..p2p.peer import Peer
from .errors import DeploymentError

__all__ = ["DeploymentManager", "merge_preseed_plans"]

#: sends of each spec before a deploy fails; they split ``deploy_timeout``
DEPLOY_ATTEMPTS = 3


def merge_preseed_plans(
    plans: Iterable[list[tuple[str, tuple[str, ...]]]],
) -> list[tuple[str, tuple[str, ...]]]:
    """Combine per-group preseed assignments into one per worker.

    Multiple groups may target the same worker; the merged plan sends
    each worker a single ``module-preseed`` with the union of its units,
    in deterministic (sorted) order.
    """
    by_worker: dict[str, set[str]] = {}
    for plan in plans:
        for worker, units in plan:
            by_worker.setdefault(worker, set()).update(units)
    return [
        (worker, tuple(sorted(units)))
        for worker, units in sorted(by_worker.items())
        if units
    ]


class DeploymentManager:
    """Sends deployment specs and waits for acks, retrying lost ones."""

    def __init__(self, peer: Peer, deploy_timeout: float = 600.0):
        self.peer = peer
        self.sim = peer.sim
        self.deploy_timeout = deploy_timeout
        self._ack_events: dict = {}
        self._preseed_events: dict = {}
        peer.on("deploy-ack", self._on_ack)
        peer.on("preseed-ack", self._on_preseed_ack)

    def _on_ack(self, message: Message) -> None:
        deployment_id, error = message.payload
        ev = self._ack_events.get(deployment_id)
        if ev is not None and not ev.triggered:
            if error is None:
                ev.succeed(deployment_id)
            else:
                ev.fail(DeploymentError(f"{deployment_id}: {error}"))

    def _on_preseed_ack(self, message: Message) -> None:
        worker, ok_units = message.payload
        ev = self._preseed_events.get(worker)
        if ev is not None and not ev.triggered:
            ev.succeed(tuple(ok_units))

    def preseed(self, assignments, timeout: float):
        """Warm worker module caches; best-effort, bounded by ``timeout``.

        ``assignments`` is ``[(worker, unit_names)]`` (see
        :func:`merge_preseed_plans`).  Yields like a sim process and
        returns ``{worker: units_confirmed}`` for the workers that acked
        in time.  Preseeding is an optimisation, never a correctness
        requirement — a silent worker is simply skipped and the deploy
        phase falls back to on-demand fetching.
        """
        if not assignments:
            return {}
        acks = {}
        for worker, units in assignments:
            ev = self.sim.event()
            self._preseed_events[worker] = ev
            acks[worker] = ev
            self.peer.send(
                worker,
                "module-preseed",
                payload=(self.peer.peer_id, tuple(units)),
                size_bytes=64 + 32 * len(units),
            )
        deadline = self.sim.timeout(timeout)
        waiting = self.sim.all_of(list(acks.values()))
        yield self.sim.any_of([waiting, deadline])
        confirmed = {}
        for worker, ev in acks.items():
            self._preseed_events.pop(worker, None)
            if ev.triggered:
                confirmed[worker] = ev.value
        return confirmed

    def deploy_all(self, specs):
        """Deploy with retries: lost deploys/acks are re-sent, not fatal.

        Workers treat duplicate deploys idempotently (re-ack), so a retry
        after a lost ack is safe.
        """
        acks = {}
        for worker, spec in specs:
            ack = self.sim.event()
            self._ack_events[spec.deployment_id] = ack
            acks[spec.deployment_id] = ack
        pending = list(specs)
        per_attempt = self.deploy_timeout / DEPLOY_ATTEMPTS
        try:
            for _attempt in range(DEPLOY_ATTEMPTS):
                for worker, spec in pending:
                    self.peer.send(
                        worker, "triana-deploy", payload=spec, size_bytes=len(spec.xml)
                    )
                deadline = self.sim.timeout(per_attempt)
                waiting = self.sim.all_of([acks[s.deployment_id] for _w, s in pending])
                yield self.sim.any_of([waiting, deadline])
                pending = [
                    (w, s) for w, s in pending
                    if not acks[s.deployment_id].triggered
                ]
                if not pending:
                    break
            if pending:
                missing = [s.deployment_id for _w, s in pending]
                raise DeploymentError(
                    f"deployment timed out after {self.deploy_timeout}s "
                    f"({DEPLOY_ATTEMPTS} attempts); unacked: {missing}"
                )
        finally:
            # Every exit path, the timeout included, forgets its acks.
            for _w, spec in specs:
                self._ack_events.pop(spec.deployment_id, None)
        # Surface failure acks (sandbox denial etc.) by touching .value.
        for ack in acks.values():
            _ = ack.value  # raises DeploymentError on failure acks
