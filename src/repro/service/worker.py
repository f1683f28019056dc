"""The Triana service — the server component hosted on every peer.

"The Triana Service is comprised of three components: a client, a server
and a command process server."  This module is the **server**: it accepts
deployed sub-graphs, fetches the required modules on demand, authorises
them against the host sandbox, executes iterations as data arrives, and
pipes results onward — either back to the controller or directly to the
next peer in a pipelined chain ("pipes data onto another machine").

Execution time is *modelled*: each iteration's unit flops are divided by
the host CPU speed, so grid-scale scenarios simulate in milliseconds
while the payloads themselves are computed for real.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional  # noqa: F401

from ..core.engine import LocalEngine
from ..core.registry import UnitRegistry
from ..core.xml_io import graph_from_string, unit_names_in_xml
from ..mobility.cache import ModuleCache, ModuleSettings
from ..mobility.errors import MobilityError, SandboxViolation
from ..mobility.sandbox import SandboxPolicy
from ..p2p.advertisement import ADV_SERVICE, Advertisement
from ..p2p.network import Message
from ..p2p.peer import Peer
from ..simkernel import Simulator

__all__ = ["DeploymentSpec", "TrianaService", "WORKER_SERVICE_KIND", "payload_nbytes"]

WORKER_SERVICE_KIND = "triana-worker"


def payload_nbytes(values) -> int:
    """Modelled wire size of one iteration's values (64 B for a bare scalar)."""
    return sum(
        v.payload_nbytes() if hasattr(v, "payload_nbytes") else 64 for v in values
    )


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything a worker needs to host one sub-graph.

    Attributes
    ----------
    deployment_id:
        Unique id assigned by the controller.
    controller:
        Peer id results/acks go back to.
    xml:
        The sub-graph as task-graph XML (the only thing shipped — code
        follows by on-demand download).
    external_inputs:
        Ordered ``(task, node)`` boundary inputs; ``group-exec`` payloads
        carry one value per entry, in order.
    output_spec:
        Ordered ``(task, node)`` boundary outputs collected per iteration.
    forward:
        ``None`` to send results to the controller, or
        ``(peer_id, deployment_id)`` to pipe them into the next stage.
    paused:
        Deploy in a buffering state: arriving iterations accumulate until
        a ``triana-resume`` message delivers (possibly migrated) unit
        state and any drained leftovers.  Used by chain migration.
    heartbeat_interval:
        When positive, the worker emits ``triana-heartbeat`` messages to
        the controller every this-many seconds while its lease is live
        (the controller renews leases for the duration of a run).  0
        disables heartbeats for this deployment.
    """

    deployment_id: str
    controller: str
    xml: str
    external_inputs: tuple[tuple[str, int], ...]
    output_spec: tuple[tuple[str, int], ...]
    forward: Optional[tuple[str, str]] = None
    paused: bool = False
    heartbeat_interval: float = 0.0


@dataclass
class _Deployment:
    spec: DeploymentSpec
    engine: LocalEngine
    #: iterations waiting for the exec loop, oldest first
    queue: deque = field(default_factory=deque)
    iterations_done: int = 0
    paused: bool = False
    backlog: list = field(default_factory=list)
    forward_override: Optional[tuple[str, str]] = None
    #: iterations queued or executing (duplicate ``group-exec`` dedup)
    pending: set = field(default_factory=set)
    #: recently shipped outputs by iteration, for idempotent re-ship
    shipped: dict = field(default_factory=dict)
    #: the ``_exec_loop`` generator :meth:`TrianaService._drive` resumes
    loop: Any = None
    #: the loop waits for an iteration and nothing will resume it until one
    #: is accepted (a loop that raised is neither idle nor resumed again)
    idle: bool = False


@dataclass
class ServiceStats:
    deployments: int = 0
    deploy_failures: int = 0
    iterations: int = 0
    busy_seconds: float = 0.0
    results_sent: int = 0
    heartbeats_sent: int = 0
    duplicate_execs_dropped: int = 0
    cached_reships: int = 0
    results_corrupted: int = 0
    #: ``module-preseed`` requests processed / units warmed by them
    preseeds: int = 0
    preseed_units_fetched: int = 0


class TrianaService:
    """Worker-side Triana service daemon ("point-and-click" install)."""

    def __init__(
        self,
        peer: Peer,
        repository_host: str,
        sandbox: Optional[SandboxPolicy] = None,
        efficiency: float = 1.0,
        modules: ModuleSettings = ModuleSettings(),
        discovery: Optional[Any] = None,
    ):
        self.peer = peer
        self.sim: Simulator = peer.sim
        self.sandbox = sandbox or SandboxPolicy()
        self.cache = ModuleCache(
            peer, repository_host, modules=modules, discovery=discovery
        )
        self.efficiency = efficiency
        self.local_registry = UnitRegistry()
        self.deployments: dict[str, _Deployment] = {}
        #: ids whose ``_deploy_proc`` is still fetching modules
        self._deploying: set[str] = set()
        self.stats = ServiceStats()
        self._tombstones: dict[str, tuple[str, str]] = {}
        #: bounded per-deployment result cache (idempotent re-ship)
        self.result_cache_size = 256
        self._hb_interval = 0.0
        self._hb_lease_until = 0.0
        self._hb_controllers: set[str] = set()
        self._hb_running = False
        peer.on("triana-deploy", self._on_deploy)
        peer.on("group-exec", self._on_exec)
        peer.on("triana-checkpoint", self._on_checkpoint)
        peer.on("triana-rewire", self._on_rewire)
        peer.on("triana-drain", self._on_drain)
        peer.on("triana-resume", self._on_resume)
        peer.on("triana-reparam", self._on_reparam)
        peer.on("triana-hb-renew", self._on_hb_renew)
        peer.on("module-preseed", self._on_preseed)

    # -- telemetry ---------------------------------------------------------------
    def telemetry_sample(self) -> dict[str, Any]:
        """Per-worker snapshot for the live telemetry sampler.

        ``queued`` counts iterations waiting in deployment queues or held
        by a paused deployment; ``inflight`` is the remainder of the
        pending sets — iterations handed to an engine but not yet
        completed.
        """
        queued = sum(
            len(d.queue) + len(d.backlog) for d in self.deployments.values()
        )
        pending = sum(len(d.pending) for d in self.deployments.values())
        return {
            "deployments": len(self.deployments),
            "queued": queued,
            "inflight": max(pending - queued, 0),
            "iterations": self.stats.iterations,
            "busy_s": round(self.stats.busy_seconds, 6),
            "results_sent": self.stats.results_sent,
            "heartbeats_sent": self.stats.heartbeats_sent,
            "cache": self.cache.telemetry_sample(),
        }

    # -- advertisement -----------------------------------------------------------
    def advertisement(self) -> Advertisement:
        p = self.peer.profile
        return Advertisement.make(
            ADV_SERVICE,
            f"triana:{self.peer.peer_id}",
            self.peer.peer_id,
            attrs={
                "kind": WORKER_SERVICE_KIND,
                "host": self.peer.peer_id,
                "cpu_flops": p.cpu_flops,
                "free_ram": p.ram_bytes,
            },
        )

    # -- heartbeats ---------------------------------------------------------------
    #: leases last this many beats past the latest deploy/renewal
    HB_LEASE_BEATS = 10

    def _ensure_heartbeat(self, controller: str, interval: float) -> None:
        """Start (or extend) the heartbeat lease toward ``controller``.

        The loop is *leased*, not perpetual: it stops ``HB_LEASE_BEATS``
        intervals after the last deploy or ``triana-hb-renew``, so an idle
        grid's event queue still drains.  Controllers renew the lease for
        as long as a run is in flight.
        """
        if interval <= 0:
            return
        self._hb_interval = interval
        self._hb_controllers.add(controller)
        self._hb_lease_until = max(
            self._hb_lease_until, self.sim.now + self.HB_LEASE_BEATS * interval
        )
        if not self._hb_running:
            self._hb_running = True
            self.sim.process(
                self._heartbeat_loop(), name=f"heartbeat/{self.peer.peer_id}"
            )

    def _on_hb_renew(self, message: Message) -> None:
        controller, interval = message.payload
        self._ensure_heartbeat(controller, float(interval))

    def _heartbeat_loop(self):
        # First beat one interval in: deploys get a quiet network, and the
        # detector's watch() grace covers the gap.
        yield self.sim.timeout(self._hb_interval)
        while self.sim.now < self._hb_lease_until:
            if self.peer.online:
                tracer = self.sim.tracer
                for controller in sorted(self._hb_controllers):
                    self.stats.heartbeats_sent += 1
                    if tracer.enabled:
                        tracer.metrics.counter("service.heartbeats_sent").inc()
                    self.peer.send(
                        controller,
                        "triana-heartbeat",
                        payload=(self.peer.peer_id, self.stats.iterations),
                        size_bytes=48,
                    )
            yield self.sim.timeout(self._hb_interval)
        self._hb_running = False

    # -- replica preseed -----------------------------------------------------------
    def _on_preseed(self, message: Message) -> None:
        controller, units = message.payload
        self.sim.process(
            self._preseed_proc(controller, units),
            name=f"preseed/{self.peer.peer_id}",
        )

    def _preseed_proc(self, controller: str, units):
        """Warm the cache with ``units`` and ack what actually landed.

        Failures (repository down, unknown unit) are swallowed — preseed
        is a best-effort optimisation and the deploy path re-fetches on
        demand anyway.
        """
        self.stats.preseeds += 1
        ok: list[str] = []
        for unit_name in units:
            try:
                yield self.cache.ensure(unit_name)
            except MobilityError:
                continue
            self.stats.preseed_units_fetched += 1
            ok.append(unit_name)
        if self.peer.online:
            self.peer.send(
                controller,
                "preseed-ack",
                payload=(self.peer.peer_id, tuple(ok)),
                size_bytes=64 + 16 * len(ok),
            )

    # -- deployment --------------------------------------------------------------
    def _on_deploy(self, message: Message) -> None:
        spec: DeploymentSpec = message.payload
        self._ensure_heartbeat(spec.controller, spec.heartbeat_interval)
        if spec.deployment_id in self.deployments:
            # Duplicate deploy (controller retry after a lost ack): re-ack.
            self.peer.send(
                spec.controller,
                "deploy-ack",
                payload=(spec.deployment_id, None),
                size_bytes=64,
            )
            return
        if spec.deployment_id in self._deploying:
            # A retry that overtook a slow module fetch: the ack the first
            # attempt sends answers both; a second engine would split the
            # deployment's dedup sets and unit state across two objects.
            return
        self._deploying.add(spec.deployment_id)
        proc = self.sim.process(
            self._deploy_proc(spec), name=f"deploy/{spec.deployment_id}"
        )
        proc.callbacks.append(lambda _ev: self._deploying.discard(spec.deployment_id))

    def _deploy_proc(self, spec: DeploymentSpec):
        """Fetch modules (with retry), authorise, build the engine, ack."""
        tracer = self.sim.tracer
        span = tracer.begin(
            "worker.deploy", category="service", track=self.peer.peer_id,
            deployment=spec.deployment_id, controller=spec.controller,
        )
        try:
            required = sorted(unit_names_in_xml(spec.xml))
            for unit_name in required:
                pkg = None
                for attempt in range(3):
                    try:
                        pkg = yield self.cache.ensure(unit_name)
                        break
                    except MobilityError:
                        if attempt == 2:
                            raise
                if unit_name not in self.local_registry:
                    self.local_registry.register(pkg.cls)
                self.sandbox.authorise(pkg.cls, version=pkg.version)
                tracer.instant(
                    "sandbox.authorise", category="mobility",
                    track=self.peer.peer_id, unit=unit_name, version=pkg.version,
                )
            graph = graph_from_string(spec.xml, registry=self.local_registry)
            engine = LocalEngine(graph, external_inputs=spec.external_inputs)
            # "Users also would have the option to specify how much RAM the
            # applications could use" — cap the deployment's working set.
            self.sandbox.check_ram(
                sum(type(u).RAM_ESTIMATE for u in engine.units.values())
            )
        except (MobilityError, SandboxViolation, Exception) as exc:
            self.stats.deploy_failures += 1
            span.end(outcome="failed", error=type(exc).__name__)
            self.peer.send(
                spec.controller,
                "deploy-ack",
                payload=(spec.deployment_id, f"{type(exc).__name__}: {exc}"),
                size_bytes=128,
            )
            return
        dep = _Deployment(spec=spec, engine=engine, paused=spec.paused)
        self.deployments[spec.deployment_id] = dep
        self.stats.deployments += 1
        span.end(outcome="deployed", units=len(required))
        dep.loop = self._exec_loop(dep)
        self._drive(dep)  # runs it to its first ask: an idle loop
        self.peer.send(
            spec.controller, "deploy-ack", payload=(spec.deployment_id, None), size_bytes=64
        )

    # -- execution ------------------------------------------------------------------
    def _on_exec(self, message: Message) -> None:
        """Accept the iterations of one ``group-exec``; a single is a batch
        of one.  Each item takes the same dedup / idempotence path and its
        result ships on its own."""
        deployment_id, items = message.payload
        dep = self.deployments.get(deployment_id)
        if dep is None:
            # Migrated away?  A tombstone forwards stragglers to the new home.
            target = self._tombstones.get(deployment_id)
            if target is not None and self.peer.online:
                new_peer, new_dep = target
                self.peer.send(
                    new_peer,
                    "group-exec",
                    payload=(new_dep, items),
                    size_bytes=message.size_bytes,
                )
            return
        for iteration, inputs in items:
            self._accept(dep, iteration, inputs)

    def _accept(self, dep: _Deployment, iteration: int, inputs) -> None:
        if iteration in dep.shipped:
            # Already computed and shipped: re-ship the cached outputs so a
            # redispatch after a lost result converges without re-execution.
            self.stats.cached_reships += 1
            self._ship(dep, iteration, dep.shipped[iteration])
            return
        if iteration in dep.pending:
            # Queued or executing right now: a second copy would double-count.
            self.stats.duplicate_execs_dropped += 1
            return
        dep.pending.add(iteration)
        if dep.paused:
            dep.backlog.append((iteration, inputs))
        else:
            self._enqueue(dep, (iteration, inputs))

    def _enqueue(self, dep: _Deployment, item) -> None:
        """Hand ``item`` to an idle exec loop at the current time, or queue
        it behind the execution in progress."""
        if dep.idle:
            dep.idle = False
            self.sim.call_at(self.sim.now, self._drive, dep, item)
        else:
            dep.queue.append(item)

    def _drive(self, dep: _Deployment, item=None) -> None:
        """Resume ``dep``'s exec loop with ``item`` and schedule what it asks.

        The loop yields ``None`` for the next iteration and a float to
        sleep that many modelled seconds.  A sleep resumes it at
        ``now + duration``, the instant ``sim.timeout(duration)`` fires
        at; a queued iteration resumes it at the current time; with the
        queue empty it idles until :meth:`_enqueue` wakes it.  A loop
        that raises (a unit failing on this host) stops this deployment
        only: its later iterations queue and never execute, and the
        simulation runs on.
        """
        try:
            ask = dep.loop.send(item)
        except Exception:
            return
        sim = self.sim
        if ask is not None:
            sim.call_at(sim.now + ask, self._drive, dep)
        elif dep.queue:
            sim.call_at(sim.now, self._drive, dep, dep.queue.popleft())
        else:
            dep.idle = True

    def _step(self, dep: _Deployment, iteration: int, inputs):
        """The head of one execution: open its ``worker.exec`` span, step
        the engine on the boundary inputs and measure the modelled flops.
        Returns ``(outputs, flops, span)``; how the flops are charged is
        the caller's (a modelled sleep here, a batch job on a cluster)."""
        tracer = self.sim.tracer
        span = (
            tracer.begin(
                "worker.exec", category="service", track=self.peer.peer_id,
                deployment=dep.spec.deployment_id, iteration=iteration,
            )
            if tracer.enabled
            else None
        )
        flops_before = dep.engine.stats.modelled_flops
        outputs_map = dep.engine.step(dict(zip(dep.spec.external_inputs, inputs)))
        flops = dep.engine.stats.modelled_flops - flops_before
        return [outputs_map[t][n] for t, n in dep.spec.output_spec], flops, span

    def _exec_loop(self, dep: _Deployment):
        """Serial execution of queued iterations at modelled CPU speed.

        :meth:`_drive` runs it, not a kernel process: it yields ``None``
        for the next iteration and the modelled duration to sleep.
        """
        while True:
            iteration, inputs = yield None
            # Speed is re-read per iteration: the chaos layer's straggler
            # fault scales it mid-run via the fabric's set_speed_factor
            # (a no-op 1.0 on chaos-free transports like TCP).
            speed = (
                self.peer.profile.cpu_flops
                * self.efficiency
                * self.peer.network.speed_factor(self.peer.peer_id)
            )
            outputs, flops, span = self._step(dep, iteration, inputs)
            duration = flops / speed
            yield duration
            self._complete(dep, iteration, outputs, duration, span)

    def _complete(
        self, dep: _Deployment, iteration: int, outputs: list[Any],
        duration: float, span,
    ) -> None:
        """The tail of one execution, whatever engine ran it (the volunteer
        loop after its modelled sleep, the cluster worker when its batch job ends)."""
        if span is not None:
            span.end(modelled_seconds=duration)
        self.stats.busy_seconds += duration
        self.stats.iterations += 1
        dep.iterations_done += 1
        outputs = self._maybe_tamper(dep, iteration, outputs)
        dep.pending.discard(iteration)
        self._ship(dep, iteration, outputs)

    def _maybe_tamper(
        self, dep: _Deployment, iteration: int, outputs: list[Any]
    ) -> list[Any]:
        """Apply any installed compute-fault model to this execution.

        The chaos layer plants :class:`~repro.faults.compute.ComputeFaultModel`
        instances in the fabric's ``compute_faults`` mapping (part of the
        :class:`~repro.p2p.network.Transport` interface; only the simulated
        fabric ever populates it); a clean fleet pays one dict lookup.
        Tampering is invisible to the worker's own bookkeeping on purpose —
        a saboteur believes (or pretends) its answer is fine, so the result
        ships through the normal path.
        """
        model = self.peer.network.compute_faults.get(self.peer.peer_id)
        if model is None:
            return outputs
        tampered, kind = model.apply(
            dep.spec.deployment_id, iteration, outputs, self.sim.now
        )
        if kind:
            self.stats.results_corrupted += 1
            self.sim.tracer.instant(
                "fault.tamper", category="faults", track=self.peer.peer_id,
                kind=kind, deployment=dep.spec.deployment_id,
                iteration=iteration,
            )
        return tampered

    def _ship(self, dep: _Deployment, iteration: int, outputs: list[Any]) -> None:
        # Cache before the online check: if the ship is lost to churn, a
        # later duplicate group-exec re-ships from here without recompute.
        dep.shipped[iteration] = outputs
        if len(dep.shipped) > self.result_cache_size:
            del dep.shipped[min(dep.shipped)]
        size = payload_nbytes(outputs)
        if not self.peer.online:
            return  # churned away mid-compute; controller recovers
        self.stats.results_sent += 1
        forward = dep.forward_override or dep.spec.forward
        if forward is None:
            self.peer.send(
                dep.spec.controller,
                "group-result",
                payload=(dep.spec.deployment_id, iteration, outputs),
                size_bytes=size,
            )
        else:
            next_peer, next_dep = forward
            self.peer.send(
                next_peer,
                "group-exec",
                payload=(next_dep, [(iteration, outputs)]),
                size_bytes=size,
            )

    # -- checkpoint & migration protocol ------------------------------------------------
    def _on_checkpoint(self, message: Message) -> None:
        requester, deployment_id = message.payload
        dep = self.deployments.get(deployment_id)
        state = dep.engine.checkpoint() if dep is not None else None
        self.peer.send(
            requester,
            "checkpoint-reply",
            payload=(deployment_id, state),
            size_bytes=1024,
        )

    def _on_reparam(self, message: Message) -> None:
        """Update unit parameters of a live deployment.

        The Case-1 view change: "messages are then sent to all the
        distributed servers so that the new data slice through each time
        frame can be calculated and returned" — no re-deploy, no code
        movement, just new parameters for already-running units.
        """
        requester, deployment_id, task_name, params = message.payload
        dep = self.deployments.get(deployment_id)
        error = None
        if dep is None:
            error = f"no deployment {deployment_id!r}"
        elif task_name not in dep.engine.units:
            error = (
                f"no task {task_name!r} in deployment "
                f"(have {sorted(dep.engine.units)})"
            )
        else:
            try:
                unit = dep.engine.units[task_name]
                for pname, pvalue in params.items():
                    unit.set_param(pname, pvalue)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.peer.send(
            requester,
            "reparam-ack",
            payload=(deployment_id, task_name, error),
            size_bytes=96,
        )

    def _on_rewire(self, message: Message) -> None:
        """Re-point a deployment's forwarding target (chain migration)."""
        deployment_id, new_forward = message.payload
        dep = self.deployments.get(deployment_id)
        if dep is not None:
            dep.forward_override = tuple(new_forward) if new_forward else None

    def _on_drain(self, message: Message) -> None:
        """Hand over a deployment: checkpoint + queued work, leave a tombstone.

        An execution already started finishes and ships; the exec loop is
        then left idle on the emptied queue, unreachable and scheduling
        nothing.
        """
        requester, deployment_id, new_home = message.payload
        dep = self.deployments.pop(deployment_id, None)
        if dep is None:
            self.peer.send(
                requester, "drain-reply", payload=(deployment_id, None, []), size_bytes=64
            )
            return
        if new_home is not None:
            self._tombstones[deployment_id] = tuple(new_home)
        leftovers = list(dep.queue) + dep.backlog
        dep.queue.clear()
        dep.backlog.clear()
        state = dep.engine.checkpoint()
        size = 1024 + sum(payload_nbytes(inputs) for _it, inputs in leftovers)
        self.peer.send(
            requester,
            "drain-reply",
            payload=(deployment_id, state, leftovers),
            size_bytes=size,
        )

    def _on_resume(self, message: Message) -> None:
        """Receive migrated state + leftovers and start executing."""
        deployment_id, state, leftovers = message.payload
        dep = self.deployments.get(deployment_id)
        if dep is None:
            return
        if state:
            dep.engine.restore(state)
        merged = sorted(list(leftovers) + dep.backlog, key=lambda item: item[0])
        dep.backlog.clear()
        dep.paused = False
        for item in merged:
            self._enqueue(dep, item)
