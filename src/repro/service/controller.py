"""The Triana controller — "a scheduling manager for the complete
application being run over a Triana network".

The controller is itself just a peer (P2P, not client-server): it
discovers worker services, partitions the task graph around its
policy-carrying groups (:func:`~repro.service.partition.partition_stages`)
and orchestrates the run — local zones execute at the controller while
each group is handed to its
:class:`~repro.service.policies.DistributionPolicy`, resolved by name
from the policy registry.

The policies themselves (the paper's ``parallel`` farm and ``p2p``
pipeline, the envelope-amortizing ``chunked`` farm, and anything third
parties register) live in :mod:`repro.service.policies`; deployment
retry machinery in :mod:`repro.service.deploy`.  The controller owns
orchestration only: message routing, result ordering, staged execution
and progress reporting.  Graphs may carry several policy groups — they are scheduled
in topological order, each group's results streaming into the next local
zone as they arrive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.engine import LocalEngine, Probe
from ..core.taskgraph import TaskGraph
from ..p2p.advertisement import ADV_SERVICE, AttrPredicate
from ..p2p.discovery import DiscoveryService
from ..p2p.network import Message
from ..p2p.peer import Peer
from ..simkernel import Event, Simulator
from .deploy import DeploymentManager
from .detector import HeartbeatFailureDetector
from .errors import SchedulingError
from .integrity import ReputationLedger, make_verifier
from .partition import StageRouter, partition_stages
from .policies import DispatchContext, RecoverySettings, global_policy_registry
from .worker import WORKER_SERVICE_KIND

__all__ = ["RunReport", "TrianaController"]


@dataclass
class RunReport:
    """Outcome of one distributed application run."""

    iterations: int
    makespan: float
    deploy_time: float
    group_results: list[list[Any]] = field(default_factory=list)
    probe_values: dict[str, list[Any]] = field(default_factory=dict)
    placements: dict[str, str] = field(default_factory=dict)
    redispatches: int = 0
    #: the distributed group's policy; ``+``-joined for multi-group runs
    policy: str = "none"
    #: network traffic attributable to this run (deltas over the run)
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    messages_corrupted: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    #: failure-detector / recovery summary (see docs/robustness.md)
    recovery: dict[str, Any] = field(default_factory=dict)
    #: tracer summary for the run (see docs/observability.md)
    tracing: dict[str, Any] = field(default_factory=dict)
    #: result-verification summary (empty when verification="none")
    integrity: dict[str, Any] = field(default_factory=dict)
    #: live-telemetry health summary (empty unless telemetry was enabled)
    health: dict[str, Any] = field(default_factory=dict)


class TrianaController:
    """Client + command-process components of the Triana service."""

    def __init__(
        self,
        peer: Peer,
        discovery: DiscoveryService,
        recovery: RecoverySettings = RecoverySettings(),
    ):
        self.peer = peer
        self.sim: Simulator = peer.sim
        self.discovery = discovery
        self.deployer = DeploymentManager(peer)
        self.recovery_settings = recovery
        self.detector = HeartbeatFailureDetector(
            heartbeat_interval=recovery.heartbeat_interval,
            suspect_after_missed=recovery.suspect_after_missed,
        )
        #: integrity convictions accumulate across runs, like the detector
        self.reputation = ReputationLedger(self.detector)
        #: per-controller deployment ids — two grids in one process must
        #: produce identical reports, so no module-global counter here
        self._dep_ids = itertools.count(1)
        #: deployment id → owning context of the run in flight
        self._ctx_of_dep: dict[str, DispatchContext] = {}
        self._duplicate_results = 0
        self._stale_results = 0
        #: worker → the attributes it advertised at the last discovery
        #: (what a ``p2p`` stage that names attributes is placed by)
        self.adverts: dict[str, dict[str, Any]] = {}
        #: the last local-zone engine of the most recent run
        self.last_downstream: Optional[LocalEngine] = None
        peer.on("group-result", self._on_result)
        peer.on("triana-heartbeat", self._on_heartbeat)

    def _next_deployment_id(self) -> str:
        return f"dep-{next(self._dep_ids)}"

    def _notify(self, kind: str, **data) -> None:
        """Emit a progress instant (recorded when tracing, always fanned out)."""
        self.sim.tracer.instant(
            kind, category="progress", track=self.peer.peer_id, **data
        )

    # -- message handlers -----------------------------------------------------
    def _on_heartbeat(self, message: Message) -> None:
        worker, dep_ids = message.payload
        self.detector.observe_heartbeat(worker, self.sim.now)
        self.deployer.release_strays(worker, dep_ids)

    def _on_result(self, message: Message) -> None:
        dep_id, iteration, outputs = message.payload
        ctx = self._ctx_of_dep.get(dep_id)
        if self._ctx_of_dep and ctx is None:
            # A straggler from a *previous* run whose iteration number
            # happens to collide with this run's: must not be accepted.
            self._stale_results += 1
            return
        self.detector.observe_result(message.src, self.sim.now)
        ev = ctx.result_events.get(iteration) if ctx is not None else None
        if ev is None or ev.triggered:
            # Redispatch/speculation race or network duplicate: first
            # result won already, later copies are dropped idempotently —
            # but an attached verifier still audits them for honesty.
            if ctx is not None and ctx.verifier is not None:
                ctx.verifier.on_late_result(ctx, iteration, message.src, outputs)
            self._duplicate_results += 1
            return
        if ctx.verifier is not None:
            # The verifier owns settling: it calls ctx.settle once the
            # result is trusted (quorum, quiz pass, or no check due).
            ctx.verifier.on_result(ctx, iteration, message.src, outputs)
            return
        ctx.settle(iteration, outputs, message.src)

    # -- worker discovery ----------------------------------------------------------
    def discover_workers(self, min_cpu_flops: float = 0.0) -> Event:
        """Find Triana worker services ("CPU capability" attribute match).

        Returns an event yielding a sorted list of worker peer ids.
        """
        # Declarative (not a closure) so the query frame can cross a
        # real transport to a remote index — see AttrPredicate.
        pred = AttrPredicate.make(
            equals={"kind": WORKER_SERVICE_KIND},
            at_least={"cpu_flops": min_cpu_flops},
        )
        query = self.discovery.query(self.peer, adv_type=ADV_SERVICE, predicate=pred)
        found = self.sim.event()

        def collect(ev: Event) -> None:
            self.adverts = {adv.attributes["host"]: adv.attributes for adv in ev.value}
            found.succeed(sorted(self.adverts))

        query.callbacks.append(collect)
        return found

    # -- the distributed run ------------------------------------------------------------
    def run_distributed(
        self,
        graph: TaskGraph,
        iterations: int,
        workers: list[str],
        probes: tuple[str, ...] = (),
        dispatch: str = "round_robin",
        verification: str = "none",
    ) -> Event:
        """Execute ``graph`` for ``iterations`` over ``workers``.

        ``dispatch`` names the farm dealing policy (see
        :func:`~repro.service.placement.dispatch_policy_names`); group
        distribution policies come from the graph itself and are resolved
        against the global policy registry (``@register_policy``).  ``verification`` selects a result-
        integrity strategy (``none`` | ``replicate-<k>`` | ``spot-<p>``,
        see :mod:`repro.service.integrity`).  Returns a process event
        yielding a :class:`RunReport`.
        """
        if iterations < 1:
            raise SchedulingError("iterations must be >= 1")
        # Fail fast on a bad spec, before the run process exists.
        make_verifier(verification)
        return self.sim.process(
            self._run_proc(
                graph, iterations, list(workers), probes, dispatch, verification
            ),
            name="triana-run",
        )

    def _run_proc(
        self, graph, iterations, workers, probes, dispatch="round_robin",
        verification="none",
    ):
        tracer = self.sim.tracer
        run_span = tracer.begin(
            "controller.run", category="service", track=self.peer.peer_id,
            graph=graph.name, iterations=iterations, dispatch=dispatch,
        )
        try:
            report = yield from self._run_proc_inner(
                graph, iterations, workers, probes, dispatch, run_span, verification
            )
        finally:
            run_span.end()  # idempotent; closes the span on error paths
            self.deployer.release_all()
        report.tracing = self.sim.tracer.summary()
        return report

    def _make_context(
        self, group, dispatch: str, iterations: int, verification: str = "none"
    ) -> DispatchContext:
        ctx = DispatchContext(
            peer=self.peer,
            detector=self.detector,
            settings=self.recovery_settings,
            dispatch_name=dispatch,
            deploy=self.deployer.deploy_all,
            next_deployment_id=self._next_deployment_id,
            notify=self._notify,
        )
        ctx.policy = global_policy_registry().create(group.policy)
        ctx.adverts = self.adverts
        ctx.iterations = iterations
        ctx.group = group
        ctx.verifier = make_verifier(verification, ledger=self.reputation)
        return ctx

    def _run_proc_inner(
        self, graph, iterations, workers, probes, dispatch, run_span,
        verification="none",
    ):
        start = self.sim.now
        net = self.peer.network.stats
        net_before = (
            net.sent,
            net.bytes_sent,
            net.dropped_offline + net.dropped_loss,
            net.corrupted,
            net.duplicated,
            net.reordered,
        )
        dup_before = self._duplicate_results
        stale_before = self._stale_results
        plan = partition_stages(graph)
        if not plan.groups:
            report = self._run_local(graph, iterations, probes)
            report.makespan = self.sim.now - start
            return report
            yield  # pragma: no cover - makes this a generator

        if not workers:
            raise SchedulingError("no workers available for a distributed run")
        engines = [
            LocalEngine(zone, external_inputs=plan.zone_external_inputs(k))
            for k, zone in enumerate(plan.zones)
        ]
        # Exposed for post-run inspection (sink units live in the last zone).
        self.last_downstream = engines[-1]
        attached = self._attach_probes(probes, *engines)
        policy_label = "+".join(g.policy for g in plan.groups)

        # -- deploy phase: every group, in topological order ------------------
        self._notify(
            "run-started",
            graph=graph.name,
            iterations=iterations,
            policy=policy_label,
        )
        deploy_start = self.sim.now
        tracer = self.sim.tracer
        deploy_span = tracer.begin(
            "controller.deploy", category="service", track=self.peer.peer_id,
            policy=policy_label, workers=len(workers),
        )
        contexts: list[DispatchContext] = [
            self._make_context(group, dispatch, iterations, verification)
            for group in plan.groups
        ]
        for ctx, group in zip(contexts, plan.groups):
            yield from ctx.policy.deploy(ctx, group, workers)
        deploy_time = self.sim.now - deploy_start
        placements = {
            dep: worker for c in contexts for dep, worker in c.placements.items()
        }
        deploy_span.end(deployments=len(placements))
        for dep_id, worker in placements.items():
            self._notify("deployed", deployment=dep_id, worker=worker)
            self.detector.watch(worker, self.sim.now)
        for ctx in contexts:
            self._ctx_of_dep.update(dict.fromkeys(ctx.placements, ctx))
            ctx.result_events = {it: self.sim.event() for it in range(iterations)}
            ctx.policy.start(ctx, iterations)
            if ctx.verifier is not None:
                ctx.verifier.start(ctx)

        # -- staged dispatch & collection -------------------------------------
        router = StageRouter(plan)

        def dispatch_stage_groups(stage: int, it: int) -> None:
            for gi in plan.groups_at_stage(stage):
                ctx = contexts[gi]
                ctx.policy.dispatch(ctx, it, router.group_inputs(plan.groups[gi], it))

        def close_stage(stage: int) -> None:
            for gi in plan.groups_at_stage(stage):
                contexts[gi].policy.flush(contexts[gi])
                contexts[gi].policy.begin_collect(contexts[gi])

        for it in range(iterations):
            router.stash_zone(0, it, engines[0].step())
            dispatch_stage_groups(0, it)
        close_stage(0)

        group_results: list[list[Any]] = []
        last_stage = len(plan.groups)
        for s in range(1, last_stage + 1):
            ctx = contexts[s - 1]
            group_name = plan.groups[s - 1].name
            results: list[list[Any]] = []
            for it in range(iterations):
                outputs = yield ctx.result_events[it]
                router.stash_group(group_name, it, outputs)
                router.stash_zone(s, it, engines[s].step(router.zone_externals(s, it)))
                results.append(outputs)
                dispatch_stage_groups(s, it)
                if s == last_stage:
                    self._notify("iteration-complete", iteration=it)
            close_stage(s)
            ctx.policy.finalize(ctx)
            ctx.result_events = {}
            group_results = results
        self._ctx_of_dep = {}

        redispatches = {
            key: sum(c.counters[key] for c in contexts)
            for key in ("n", "suspicion", "timeout", "speculative")
        }
        run_span.set(policy=policy_label, redispatches=redispatches["n"])

        integrity: dict[str, Any] = {}
        verifiers = [c.verifier for c in contexts if c.verifier is not None]
        if verifiers:
            merged: dict[str, Any] = dict(verifiers[0].report())
            for verifier in verifiers[1:]:
                for key, value in verifier.report().items():
                    if isinstance(value, int):
                        merged[key] = merged.get(key, 0) + value
            merged["verification"] = verification
            merged.update(self.reputation.summary())
            integrity = merged

        recovery = dict(self.detector.snapshot(self.sim.now))
        recovery.update(
            redispatches=redispatches["n"],
            suspicion_redispatches=redispatches["suspicion"],
            timeout_redispatches=redispatches["timeout"],
            speculative=redispatches["speculative"],
            duplicate_results=self._duplicate_results - dup_before,
            stale_results=self._stale_results - stale_before,
        )
        self._notify("run-finished", makespan=self.sim.now - start)
        return RunReport(
            iterations=iterations,
            makespan=self.sim.now - start,
            deploy_time=deploy_time,
            group_results=group_results,
            probe_values={p.task: list(p.values) for p in attached},
            placements=placements,
            redispatches=redispatches["n"],
            policy=policy_label,
            messages_sent=net.sent - net_before[0],
            bytes_sent=net.bytes_sent - net_before[1],
            messages_dropped=(net.dropped_offline + net.dropped_loss) - net_before[2],
            messages_corrupted=net.corrupted - net_before[3],
            messages_duplicated=net.duplicated - net_before[4],
            messages_reordered=net.reordered - net_before[5],
            recovery=recovery,
            integrity=integrity,
        )

    # -- local fallback -------------------------------------------------------------
    def _run_local(self, graph, iterations, probes) -> RunReport:
        engine = LocalEngine(graph)
        self.last_downstream = engine
        attached = self._attach_probes(probes, engine)
        engine.run(iterations)
        return RunReport(
            iterations=iterations,
            makespan=0.0,
            deploy_time=0.0,
            probe_values={p.task: list(p.values) for p in attached},
            policy="none",
        )

    def _attach_probes(self, probes, *engines: LocalEngine) -> list[Probe]:
        """Probe each name in the first zone that has it; a zone's own
        refusal (an ambiguous name, a missing output node) is raised."""
        attached = []
        for name in probes:
            engine = next((e for e in engines if e.probe_candidates(name)), None)
            if engine is None:
                raise SchedulingError(f"probe target {name!r} not found in any zone")
            attached.append(engine.attach_probe(name))
        return attached
