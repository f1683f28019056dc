"""The ``parallel`` farm — the paper's first distribution policy.

"A farming out mechanism and generally involves no communication between
hosts": the whole group is replicated on every worker, iterations are
dealt by a :class:`~repro.service.placement.DispatchPolicy` and results
are re-ordered by iteration at the controller.

The farm owns the two-tier churn recovery documented in
``docs/robustness.md``: heartbeat suspicion acted on within one detector
beat, a ``retry_timeout`` aging fallback, exponential backoff with
deterministic jitter from the ``recovery-backoff`` stream, and
speculative duplication of stragglers once most of the batch is done.

``chunked`` is the same farm shipping ``chunk_size`` iterations per
message: every ``group-exec`` pays a fixed 64-byte envelope on the
controller's DSL uplink.  Dealing and recovery are the farm's own, so a
makespan difference against ``parallel`` is pure envelope economics; a
recovered or speculated iteration travels alone whatever the farm batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...core.xml_io import graph_to_string
from ..placement import DispatchPolicy, make_dispatch_policy
from ..worker import DeploymentSpec
from .base import DispatchContext, DistributionPolicy

__all__ = ["ChunkedFarmPolicy", "Outstanding", "ParallelFarmPolicy"]

#: cap on the exponential re-dispatch back-off (seconds); the first
#: back-off is one ``retry_interval``
BACKOFF_MAX = 120.0
#: duplicate stragglers once this fraction of the batch is done and an
#: iteration has been outstanding for two heartbeat intervals
SPECULATION_THRESHOLD = 0.9


@dataclass
class Outstanding:
    """One dispatched-but-unresolved iteration the recovery loop watches."""

    inputs: list[Any]
    base_replica: int
    dispatched_at: float
    attempts: int = 0
    #: replica index currently responsible for this iteration
    replica: int = 0
    #: earliest time another re-dispatch is allowed (exponential backoff)
    retry_at: float = 0.0
    speculated: bool = False


class ParallelFarmPolicy(DistributionPolicy):
    """Farm the group onto every worker; deal iterations, recover churn."""

    name = "parallel"
    #: iterations per ``group-exec``; 1 is the paper's farm
    chunk_size = 1

    def deploy(self, ctx: DispatchContext, group, workers: list[str]):
        """Replicate the whole group on every worker."""
        xml = graph_to_string(group.graph)
        specs = []
        for worker in workers:
            specs.append(
                (
                    worker,
                    DeploymentSpec(
                        deployment_id=ctx.next_deployment_id(),
                        controller=ctx.peer.peer_id,
                        xml=xml,
                        external_inputs=tuple(group.input_map),
                        output_spec=tuple(group.output_map),
                        forward=None,
                        heartbeat_interval=ctx.detector.heartbeat_interval,
                    ),
                )
            )
        yield from ctx.deploy(specs)

    def start(self, ctx: DispatchContext, iterations: int) -> None:
        self.outstanding: dict[int, Outstanding] = {}
        self.dispatcher: DispatchPolicy = make_dispatch_policy(ctx.dispatch_name)
        # Reputation-aware dispatchers (duck-typed so plain ones cost
        # nothing) get the detector and the replica→host mapping.
        bind = getattr(self.dispatcher, "bind_reputation", None)
        if bind is not None:
            bind(ctx.detector, ctx.replica_hosts, ctx.sim)
        self.dispatcher.setup(
            [ctx.profile(h).cpu_flops for h in ctx.replica_hosts]
        )
        #: iteration → replica awaiting completion credit
        self.replica_of: dict[int, int] = {}
        #: per replica: dealt (iteration, inputs) awaiting one send
        self._buffers: list[list[tuple[int, list]]] = [[] for _ in ctx.dep_ids]
        self._stop = {"done": False}

    def dispatch(self, ctx: DispatchContext, iteration: int, inputs: list) -> None:
        replica = self.dispatcher.choose(iteration)
        self.replica_of[iteration] = replica
        self.outstanding[iteration] = Outstanding(
            inputs=inputs,
            base_replica=replica,
            dispatched_at=ctx.sim.now,
            replica=replica,
        )
        buffer = self._buffers[replica]
        buffer.append((iteration, inputs))
        if len(buffer) >= self.chunk_size:
            self._flush_replica(ctx, replica)

    def flush(self, ctx: DispatchContext) -> None:
        for replica, buffer in enumerate(self._buffers):
            if buffer:
                self._flush_replica(ctx, replica)

    def _flush_replica(self, ctx: DispatchContext, replica: int) -> None:
        items, self._buffers[replica] = self._buffers[replica], []
        ctx.send_exec(ctx.replica_hosts[replica], ctx.dep_ids[replica], items)

    def begin_collect(self, ctx: DispatchContext) -> None:
        ctx.spawn(self._recovery_loop(ctx), name="recovery-monitor")

    def on_result(self, ctx: DispatchContext, iteration: int, worker: str) -> None:
        if iteration in self.replica_of:
            self.dispatcher.completed(self.replica_of.pop(iteration))
        self.outstanding.pop(iteration, None)
        span = ctx.redispatch_spans.pop(iteration, None)
        if span is not None:
            span.end(outcome="completed", worker=worker)

    def finalize(self, ctx: DispatchContext) -> None:
        self._stop["done"] = True
        for _it, span in sorted(ctx.redispatch_spans.items()):
            span.end(outcome="abandoned")
        ctx.redispatch_spans.clear()

    # -- churn recovery -----------------------------------------------------
    def _recovery_loop(self, ctx: DispatchContext):
        """Suspicion-driven + timeout-fallback redispatch, plus speculation.

        Ticks at ``min(retry_interval, heartbeat_interval)`` so a heartbeat
        suspicion is acted on within one beat of the detector deadline —
        the seed's retry loop could leave a dead iteration waiting up to
        ``retry_timeout + retry_interval``.
        """
        cfg = ctx.settings
        stop = self._stop
        outstanding = self.outstanding
        tick = min(cfg.retry_interval, ctx.detector.heartbeat_interval)
        hb = ctx.detector.heartbeat_interval
        # Renew worker heartbeat leases well inside their 10-beat window.
        renew_every = max(1, int(4 * hb / tick))
        rng = ctx.rng("recovery-backoff")
        ticks = 0
        while not stop["done"]:
            yield ctx.sim.timeout(tick)
            if stop["done"]:
                return
            now = ctx.sim.now
            ticks += 1
            if ticks % renew_every == 0:
                for host in sorted(set(ctx.replica_hosts)):
                    ctx.send(
                        host, "triana-hb-renew",
                        payload=(ctx.peer.peer_id, hb), size_bytes=48,
                    )
            fresh_suspects = ctx.detector.check(now)
            if fresh_suspects:
                tracer = ctx.sim.tracer
                for worker in fresh_suspects:
                    tracer.metrics.counter("service.suspicions").inc()
                    tracer.instant(
                        "detector.suspect", category="service",
                        track=ctx.peer.peer_id, worker=worker,
                    )
                self._on_suspects(ctx, fresh_suspects)
            done = ctx.iterations - len(outstanding)
            for it, rec in sorted(outstanding.items()):
                ev = ctx.result_events.get(it)
                if ev is None or ev.triggered:
                    outstanding.pop(it, None)
                    continue
                host = ctx.replica_hosts[rec.replica]
                aged = now - rec.dispatched_at >= cfg.retry_timeout
                suspected = not ctx.detector.is_alive(host, now)
                if suspected or aged:
                    if now < rec.retry_at:
                        continue  # backing off after a recent redispatch
                    reason = "suspicion" if suspected else "timeout"
                    self._redispatch(ctx, rec, it, now, rng, reason)
                elif (
                    done >= SPECULATION_THRESHOLD * ctx.iterations
                    and not rec.speculated
                    and now - rec.dispatched_at >= 2.0 * cfg.heartbeat_interval
                ):
                    self._speculate(ctx, rec, it, now)

    def _on_suspects(self, ctx: DispatchContext, suspects) -> None:
        """Freshly suspected workers: let the dispatcher re-weight."""
        for worker in suspects:
            for idx, host in enumerate(ctx.replica_hosts):
                if host == worker:
                    self.dispatcher.mark_offline(idx)

    def _redispatch(self, ctx, rec, it, now, rng, reason) -> None:
        cfg = ctx.settings
        rec.attempts += 1
        idx = self._pick_replica(ctx, rec, now)
        rec.replica = idx
        rec.dispatched_at = now
        backoff = min(cfg.retry_interval * 2 ** (rec.attempts - 1), BACKOFF_MAX)
        rec.retry_at = now + backoff * (1.0 + 0.25 * float(rng.random()))
        ctx.counters["n"] += 1
        ctx.counters[reason] += 1
        tracer = ctx.sim.tracer
        if tracer.enabled:
            previous = ctx.redispatch_spans.pop(it, None)
            if previous is not None:
                previous.end(outcome="superseded")
            ctx.redispatch_spans[it] = tracer.begin(
                "controller.redispatch", category="service",
                track=ctx.peer.peer_id, iteration=it,
                worker=ctx.replica_hosts[idx], reason=reason, attempt=rec.attempts,
            )
            tracer.metrics.counter(f"service.redispatch_{reason}").inc()
        ctx.notify(
            "redispatch", iteration=it, worker=ctx.replica_hosts[idx], reason=reason
        )
        ctx.send_exec(ctx.replica_hosts[idx], ctx.dep_ids[idx], [(it, rec.inputs)])

    def _pick_replica(self, ctx: DispatchContext, rec, now) -> int:
        """Next target: prefer online + healthy, then merely online."""
        k = len(ctx.replica_hosts)
        online_idx = None
        for offset in range(k):
            idx = (rec.base_replica + rec.attempts + offset) % k
            host = ctx.replica_hosts[idx]
            if not ctx.is_online(host):
                continue
            if online_idx is None:
                online_idx = idx
            if ctx.detector.is_dispatchable(host, now):
                return idx
        if online_idx is not None:
            return online_idx
        return (rec.base_replica + rec.attempts) % k

    def _speculate(self, ctx: DispatchContext, rec, it, now) -> None:
        """Duplicate a straggling iteration on a second healthy replica.

        First result wins (the controller drops the loser); the worker
        side de-duplicates, so this is safe even if the original is alive.
        """
        k = len(ctx.replica_hosts)
        for offset in range(1, k):
            idx = (rec.replica + offset) % k
            host = ctx.replica_hosts[idx]
            if ctx.is_online(host) and ctx.detector.is_dispatchable(host, now):
                break
        else:
            return  # no second replica worth speculating on
        rec.speculated = True
        ctx.counters["speculative"] += 1
        ctx.sim.tracer.metrics.counter("service.speculations").inc()
        ctx.notify("speculate", iteration=it, worker=ctx.replica_hosts[idx])
        ctx.send_exec(ctx.replica_hosts[idx], ctx.dep_ids[idx], [(it, rec.inputs)])


class ChunkedFarmPolicy(ParallelFarmPolicy):
    """Farm like ``parallel`` but batch k iterations per message."""

    name = "chunked"

    def __init__(self, chunk_size: int = 8):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
