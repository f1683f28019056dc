"""Deploy-with-retry: shipping sub-graph XML to worker peers.

Transport-agnostic: deploys are plain protocol messages through the
owning peer (:meth:`~repro.p2p.peer.Peer.ask`), so the same ask/ack
machinery drives workers on the simulated fabric and over TCP alike.

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

from functools import partial
from typing import Iterable

from ..p2p.errors import RequestFailed
from ..p2p.network import Message
from ..p2p.peer import ASK_ATTEMPTS, Peer
from .errors import DeploymentError

__all__ = ["DeploymentManager", "merge_preseed_plans"]


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
    """Sends deployment specs and waits for acks, re-asking lost ones."""

    def __init__(self, peer: Peer, deploy_timeout: float = 600.0):
        self.peer = peer
        self.sim = peer.sim
        self.deploy_timeout = deploy_timeout
        self._ack_events: dict = {}
        self._preseed_events: dict = {}
        peer.on("deploy-ack", self._on_ack)
        peer.on("preseed-ack", self._on_preseed_ack)

    def _on_ack(self, message: Message) -> None:
        """Success and a final refusal answer the ask (the ack itself is the
        reply); a refusal a re-ask may change fails this attempt."""
        deployment_id, error, final = message.payload
        ev = self._ack_events.get(deployment_id)
        if ev is not None and not ev.triggered:
            if error is None or final:
                ev.succeed(message.payload)
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
        """Deploy every spec at once, each asked through :meth:`Peer.ask`;
        returns the acked ``(worker, spec)`` pairs and ``(worker, spec,
        cause)`` for each never acked or refused.  A duplicate deploy is
        re-acked, so a re-ask after a lost ack is safe."""
        asks = [
            self.sim.process(self._ask(w, s), name=f"ask/{s.deployment_id}")
            for w, s in specs
        ]
        yield self.sim.all_of(asks)
        acked = [(w, s) for (w, s), a in zip(specs, asks) if a.value is None]
        dropped = [(w, s, a.value) for (w, s), a in zip(specs, asks) if a.value is not None]
        return acked, dropped

    def _ask(self, worker, spec):
        """One spec's deploy asks: None once acked, else the cause."""
        what = f"deploy {spec.deployment_id!r} on {worker!r}"
        try:
            _dep, error, _final = yield from self.peer.ask(
                partial(self._send, worker, spec), what
            )
        except RequestFailed as exc:
            return str(exc)
        finally:  # every exit path, the give-up included, forgets its ack
            self._ack_events.pop(spec.deployment_id, None)
        if error is not None:
            return f"{what} refused at t={self.sim.now:g}: {error}"

    def _send(self, worker, spec):
        ack = self._ack_events[spec.deployment_id] = self.sim.event()
        self.peer.send(worker, "triana-deploy", payload=spec, size_bytes=len(spec.xml))
        deadline = self.deploy_timeout / ASK_ATTEMPTS
        self.sim.call_at(self.sim.now + deadline, _expire, ack, deadline)
        return ack


def _expire(ack, deadline: float) -> None:
    if not ack.triggered:
        ack.fail(DeploymentError(f"no deploy-ack within {deadline:g}s"))
