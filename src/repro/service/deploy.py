"""Deploy-with-retry: shipping sub-graph XML to worker peers.

Transport-agnostic: deploys are plain protocol messages through the
owning peer (:meth:`~repro.p2p.peer.Peer.ask`), so the same ask/ack
machinery drives workers on the simulated fabric and over TCP alike.

Owns the ``triana-deploy`` / ``deploy-ack`` exchange, and the
``triana-release`` that ends a deployment (a worker beats while it holds
one: docs/robustness.md), so neither the controller nor the policies
re-implement that bookkeeping.  Policies reach it through
:meth:`~repro.service.policies.DispatchContext.deploy`.

Every spec of a deploy goes out at once.  Each worker's deploy fetches
its modules, and the portal's repository decides whether a worker's
bytes come from the portal or from a worker it has already shipped them
to (see docs/performance.md, "Module distribution").
"""

from __future__ import annotations

from functools import partial

from ..p2p.errors import PeerOfflineError, RequestFailed
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
        #: worker → the deployment ids the run in flight asked of it
        self._asked: dict[str, list[str]] = {}
        #: the asked ids the run has not given up on
        self._held: set[str] = set()
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
        for w, s in specs:
            self._asked.setdefault(w, []).append(s.deployment_id)
            self._held.add(s.deployment_id)
        asks = [
            self.sim.process(self._ask(w, s), name=f"ask/{s.deployment_id}")
            for w, s in specs
        ]
        yield self.sim.all_of(asks)
        causes = [ask.value for ask in asks]
        acked = [(w, s) for (w, s), c in zip(specs, causes) if c is None]
        dropped = [(w, s, c) for (w, s), c in zip(specs, causes) if c is not None]
        self._held.difference_update(s.deployment_id for _w, s, _c in dropped)
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
        """Arm this attempt's deadline, then send.  An offline controller's
        send is lost like an unanswered one: the attempt ends at its
        deadline, not at once."""
        ack = self._ack_events[spec.deployment_id] = self.sim.event()
        deadline = self.deploy_timeout / ASK_ATTEMPTS
        self.sim.call_at(self.sim.now + deadline, _expire, ack, deadline)
        try:
            self.peer.send(
                worker, "triana-deploy", payload=spec, size_bytes=len(spec.xml)
            )
        except PeerOfflineError:
            pass
        return ack

    def release_all(self) -> None:
        """The run is over: one ``triana-release`` per worker it asked,
        naming every deployment asked of it, acked or not."""
        asked, self._asked, self._held = self._asked, {}, set()
        for worker, dep_ids in asked.items():
            self._release(worker, dep_ids)

    def release_strays(self, worker: str, dep_ids) -> None:
        """Answer a beat: release the ids it names that are not held (a
        lost release, or a deploy that landed after the run gave it up)."""
        strays = [d for d in dep_ids if d not in self._held]
        if strays:
            self._release(worker, strays)

    def _release(self, worker: str, dep_ids: list[str]) -> None:
        if self.peer.online:  # an offline controller's release is lost
            self.peer.send(worker, "triana-release", payload=tuple(dep_ids), size_bytes=48)


def _expire(ack, deadline: float) -> None:
    if not ack.triggered:
        ack.fail(DeploymentError(f"no deploy-ack within {deadline:g}s"))
