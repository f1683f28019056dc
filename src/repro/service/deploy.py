"""Deploy-with-retry: shipping sub-graph XML to worker peers.

Transport-agnostic: deploys are plain protocol messages through the
owning peer (:meth:`~repro.p2p.peer.Peer.ask`), so the same ask/ack
machinery drives workers on the simulated fabric and over TCP alike.

Owns the ``triana-deploy`` / ``deploy-ack`` exchange so neither the
controller nor the policies re-implement ack bookkeeping.  Policies reach
it through :meth:`~repro.service.policies.DispatchContext.deploy`.

Every spec of a deploy goes out at once.  Each worker's deploy fetches
its modules, and the portal's repository decides whether a worker's
bytes come from the portal or from a worker it has already shipped them
to (see docs/performance.md, "Module distribution").
"""

from __future__ import annotations

from functools import partial

from ..p2p.errors import RequestFailed
from ..p2p.network import Message
from ..p2p.peer import ASK_ATTEMPTS, Peer
from .errors import DeploymentError

__all__ = ["DeploymentManager"]


class DeploymentManager:
    """Sends deployment specs and waits for acks, re-asking lost ones."""

    def __init__(self, peer: Peer, deploy_timeout: float = 600.0):
        self.peer = peer
        self.sim = peer.sim
        self.deploy_timeout = deploy_timeout
        self._ack_events: dict = {}
        peer.on("deploy-ack", self._on_ack)

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

    def deploy_all(self, specs):
        """Deploy every spec at once, each asked through :meth:`Peer.ask`.
        Returns the acked ``(worker, spec)`` pairs and ``(worker, spec,
        cause)`` for each never acked or refused, both in spec order.  A
        duplicate deploy is re-acked, so a re-ask after a lost ack is
        safe."""
        asks = [
            self.sim.process(self._ask(w, s), name=f"ask/{s.deployment_id}")
            for w, s in specs
        ]
        yield self.sim.all_of(asks)
        causes = [ask.value for ask in asks]
        acked = [(w, s) for (w, s), c in zip(specs, causes) if c is None]
        dropped = [(w, s, c) for (w, s), c in zip(specs, causes) if c is not None]
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
