"""The distribution-policy strategy interface and its controller facade.

The paper (§3.3) presents ``parallel`` and ``p2p`` as *examples* of how a
grouped sub-workflow may be distributed, not a closed set.  This module
makes the policy a first-class strategy object:

* :class:`DistributionPolicy` — the hook sequence one group goes through
  (``deploy`` → ``dispatch``/``flush`` → ``begin_collect`` →
  ``on_result`` → ``finalize``);
* :class:`DispatchContext` — everything the controller lends a policy for
  one group run: the simulator clock/RNG, messaging, the deploy-with-retry
  machinery, the failure detector, recovery settings and tracing.

Policies receive controller *services*, never the controller object —
``tools/check_layering.py`` enforces that nothing in this package imports
``repro.service.controller``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ...core import engine
from ...p2p.peer import Peer
from ...simkernel import Event, Simulator
from ..detector import HeartbeatFailureDetector
from ..errors import DeploymentError
from ..worker import DeploymentSpec, payload_nbytes

__all__ = ["RecoverySettings", "DispatchContext", "DistributionPolicy"]


@dataclass(frozen=True)
class RecoverySettings:
    """How a controller notices lost work and how long it waits to re-send it.

    The defaults suit simulated consumer DSL; a wall-clock deployment
    uses seconds, not minutes (``repro.deployment.DEPLOYMENT_DEFAULTS``).
    """

    #: an unanswered iteration older than this is re-dispatched
    retry_timeout: float = 900.0
    #: recovery-loop tick, and the first re-dispatch back-off
    retry_interval: float = 300.0
    #: worker heartbeat period the failure detector expects
    heartbeat_interval: float = 60.0
    #: silent beats before a worker is suspected
    suspect_after_missed: int = 3

    def __post_init__(self):
        for name in ("retry_timeout", "retry_interval", "heartbeat_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.suspect_after_missed < 1:
            raise ValueError("suspect_after_missed must be >= 1")


class DispatchContext:
    """One group run's view of the controller, lent to its policy.

    The context carries identity (``peer``), services (send/deploy/
    notify, detector, recovery settings) and per-run state the controller
    and policy share: placements, result events, redispatch spans and the
    recovery counters that feed the :class:`~repro.service.controller.
    RunReport` summary.
    """

    def __init__(
        self,
        *,
        peer: Peer,
        detector: HeartbeatFailureDetector,
        settings: RecoverySettings,
        dispatch_name: str,
        deploy: Callable,
        next_deployment_id: Callable[[], str],
        notify: Callable[..., None],
    ):
        self.peer = peer
        self.sim: Simulator = peer.sim
        self.detector = detector
        self.settings = settings
        #: farm dispatch-policy name (``round_robin`` | ``weighted`` | ...)
        self.dispatch_name = dispatch_name
        self._deploy = deploy
        self.next_deployment_id = next_deployment_id
        self.notify = notify
        #: deployment id → worker host, filled after ``deploy``
        self.placements: dict[str, str] = {}
        self.dep_ids: list[str] = []
        self.replica_hosts: list[str] = []
        #: iteration → event succeeded with the group's outputs
        self.result_events: dict[int, Event] = {}
        #: open ``controller.redispatch`` spans by iteration
        self.redispatch_spans: dict[int, Any] = {}
        #: recovery accounting, aggregated into the run report
        self.counters = {"n": 0, "suspicion": 0, "timeout": 0, "speculative": 0}
        self.iterations = 0
        #: the policy instance driving this run (set by the controller)
        self.policy: Any = None
        #: result-verification strategy, or None for the trusting default
        #: (None keeps dispatch and settling byte-for-byte the old path)
        self.verifier: Any = None
        #: the policy-carrying group this run distributes
        self.group: Any = None
        #: worker → the attributes it advertised when the controller last
        #: discovered workers (empty for a worker it never discovered)
        self.adverts: dict[str, dict[str, Any]] = {}

    # -- controller services ------------------------------------------------
    def deploy(self, specs: list[tuple[str, DeploymentSpec]]):
        """``dropped = yield from ctx.deploy(specs)`` in a policy's ``deploy``:
        records the acked placements.  A worker that never acked, or refused,
        leaves the run (a ``worker-dropped`` notice) and comes back in
        ``dropped`` as ``(worker, spec, cause)``; no ack at all is an error."""
        acked, dropped = yield from self._deploy(specs)
        for w, s, cause in dropped:
            self.notify("worker-dropped", deployment=s.deployment_id, worker=w, cause=cause)
        if specs and not acked:
            causes = "; ".join(cause for _w, _s, cause in dropped)
            raise DeploymentError(f"group {self.group.name!r} has no worker left: {causes}")
        for worker, spec in acked:
            self.placements[spec.deployment_id] = worker
        self.dep_ids = list(self.placements)
        self.replica_hosts = [self.placements[d] for d in self.dep_ids]
        return dropped

    def send_exec(
        self, worker: str, deployment_id: str, items: list, verify: bool = True
    ) -> None:
        """Ship ``(iteration, inputs)`` items to a deployment in one
        ``group-exec`` — one item for the paper's farm, several when a
        policy batches (the 64-byte envelope is then paid once).

        When a verifier is attached it observes every send (replication
        fans out from here); its own replica sends pass ``verify=False`` and
        :func:`~repro.core.engine.share` their inputs, so replicas in this
        process compute a stateless unit once.
        """
        size = 64  # the envelope, paid once per message
        for _it, inputs in items:
            size += payload_nbytes(inputs)
            if not verify:
                engine.share(inputs)
        tracer = self.sim.tracer
        if tracer.enabled:
            batched = {"batched": len(items)} if len(items) > 1 else {}
            tracer.instant(
                "controller.dispatch", category="service", track=self.peer.peer_id,
                worker=worker, deployment=deployment_id,
                iteration=items[0][0], **batched,
            )
        self.peer.send(
            worker, "group-exec", payload=(deployment_id, items), size_bytes=size
        )
        if verify and self.verifier is not None:
            self.verifier.on_dispatch(self, worker, deployment_id, items)

    def settle(self, iteration: int, outputs, worker: str) -> bool:
        """Finish one iteration: policy bookkeeping, then the result event.

        The controller settles unverified runs itself; verification
        strategies settle through here once a result is trusted.  Safe
        against races — a second settle of the same iteration is a no-op.
        """
        ev = self.result_events.get(iteration)
        if ev is None or ev.triggered:
            return False
        self.policy.on_result(self, iteration, worker=worker)
        ev.succeed(outputs)
        return True

    def spawn(self, generator, name: str):
        """Run a policy-owned process (e.g. the spot-check quiz)."""
        return self.sim.process(generator, name=name)

    def rng(self, name: str):
        """A named deterministic RNG stream (see the determinism contract)."""
        return self.sim.rng(name)

    def profile(self, host: str):
        return self.peer.network.profile(host)

    def is_online(self, host: str) -> bool:
        return self.peer.network.is_online(host)


class DistributionPolicy:
    """How one policy-carrying group is spread over worker peers.

    Subclass, set :attr:`name`, override the hooks you need, and register
    the class with :func:`~repro.service.policies.register_policy`.  The
    controller drives one fresh instance per group per run through:

    1. :meth:`deploy` — a generator placing the group on workers;
    2. :meth:`start` — result events exist; allocate per-run state;
    3. :meth:`dispatch` — once per iteration, inputs ready to ship;
    4. :meth:`flush` — the dispatch loop is done (drain any batching);
    5. :meth:`begin_collect` — collection starts (launch recovery here);
    6. :meth:`on_result` — a result arrived (bookkeeping; the controller
       settles the iteration's event itself);
    7. :meth:`finalize` — the group's results are all in.
    """

    #: registry name; also the value of ``<group policy="...">`` in XML
    name: str = ""
    #: one deployment per stage, each piping into the next: the placement
    #: is the topology, so verification has no replica set to vote over
    chained: bool = False

    @classmethod
    def summary(cls) -> str:
        """First docstring line — shown by ``repro policies``."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def deploy(self, ctx: DispatchContext, group, workers: list[str]):
        """Place ``group`` on ``workers``; yields like a sim process.

        Must ``yield from ctx.deploy(specs)`` (or otherwise wait on the
        acks) and leave ``ctx.placements`` filled.
        """
        raise NotImplementedError
        yield  # pragma: no cover - generator shape

    def start(self, ctx: DispatchContext, iterations: int) -> None:
        """Called once before dispatching; ``ctx.result_events`` exist."""

    def dispatch(self, ctx: DispatchContext, iteration: int, inputs: list) -> None:
        """Route one iteration's boundary inputs into the group."""
        raise NotImplementedError

    def flush(self, ctx: DispatchContext) -> None:
        """All iterations dispatched; send anything still buffered."""

    def begin_collect(self, ctx: DispatchContext) -> None:
        """Collection is starting; launch recovery processes here."""

    def on_result(self, ctx: DispatchContext, iteration: int, worker: str) -> None:
        """A first result for ``iteration`` arrived from ``worker``."""

    def finalize(self, ctx: DispatchContext) -> None:
        """Every iteration collected; stop loops, close open spans."""
