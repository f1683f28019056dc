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

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Any, Optional

from ..core.engine import LocalEngine
from ..core.registry import UnitRegistry
from ..core.types import TableData
from ..core.units import SITE_READ
from ..core.xml_io import graph_from_string, unit_names_in_xml
from ..mobility.cache import ModuleCache, ModuleSettings
from ..mobility.sandbox import SandboxPolicy
from ..p2p.advertisement import ADV_SERVICE, Advertisement
from ..p2p.errors import RequestFailed
from ..p2p.network import Message
from ..p2p.peer import Peer
from ..simkernel import Simulator

__all__ = [
    "DeploymentSpec", "Site", "TrianaService", "WORKER_SERVICE_KIND", "payload_nbytes",
]

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
    heartbeat_interval:
        When positive and finite, the worker beats toward the controller
        this often while it holds deployments from it, naming them; the
        controller answers a beat naming one it does not hold with a
        ``triana-release``.  Any other value starts no heartbeat.
    """

    deployment_id: str
    controller: str
    xml: str
    external_inputs: tuple[tuple[str, int], ...]
    output_spec: tuple[tuple[str, int], ...]
    forward: Optional[tuple[str, str]] = None
    heartbeat_interval: float = 0.0


@dataclass(frozen=True)
class Site:
    """What a worker offers besides its CPU: the site it stands at, the
    accuracy of its services, the service kinds it offers and the tables
    it hosts (Case 3, §3.6.3).

    Each field that is set is advertised (``site``, ``accuracy``,
    ``services``, and ``tables`` as the sorted table names), so a
    ``p2p`` stage can be placed by it (:meth:`Unit.requires
    <repro.core.units.Unit.requires>`).  ``tables`` themselves stay on
    the worker: a unit that declares ``"site.read"`` reads them there.
    """

    name: str = ""
    accuracy: Optional[float] = None
    services: tuple[str, ...] = ()
    tables: dict[str, TableData] = field(default_factory=dict)

    def attributes(self) -> dict[str, Any]:
        """The advertisement attributes of the fields that are set."""
        attrs = {
            "site": self.name,
            "accuracy": self.accuracy,
            "services": tuple(self.services),
            "tables": tuple(sorted(self.tables)),
        }
        return {k: v for k, v in attrs.items() if v not in ("", None, ())}


@dataclass
class _Deployment:
    spec: DeploymentSpec
    engine: LocalEngine
    #: iterations waiting for the exec loop, oldest first
    queue: deque = field(default_factory=deque)
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


class TrianaService:
    """Worker-side Triana service daemon ("point-and-click" install)."""

    def __init__(
        self,
        peer: Peer,
        repository_host: str,
        sandbox: Optional[SandboxPolicy] = None,
        efficiency: float = 1.0,
        modules: ModuleSettings = ModuleSettings(),
        site: Optional[Site] = None,
    ):
        self.peer = peer
        self.site = site
        self.sim: Simulator = peer.sim
        self.sandbox = sandbox or SandboxPolicy()
        self.cache = ModuleCache(peer, repository_host, modules=modules)
        self.efficiency = efficiency
        self.local_registry = UnitRegistry()
        self.deployments: dict[str, _Deployment] = {}
        #: ids whose ``_deploy_proc`` is still fetching modules
        self._deploying: set[str] = set()
        self.stats = ServiceStats()
        #: bounded per-deployment result cache (idempotent re-ship)
        self.result_cache_size = 256
        self._hb_interval = 0.0
        self._hb_running = False
        peer.on("triana-deploy", self._on_deploy)
        peer.on("group-exec", self._on_exec)
        peer.on("triana-release", self._on_release)

    # -- telemetry ---------------------------------------------------------------
    def telemetry_sample(self) -> dict[str, Any]:
        """Per-worker snapshot for the live telemetry sampler.

        ``queued`` counts iterations waiting in deployment queues;
        ``inflight`` is the remainder of the pending sets — iterations
        handed to an engine but not yet completed.
        """
        queued = sum(len(d.queue) for d in self.deployments.values())
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
        attrs = {
            "kind": WORKER_SERVICE_KIND,
            "host": self.peer.peer_id,
            "cpu_flops": p.cpu_flops,
            "free_ram": p.ram_bytes,
        }
        if self.site is not None:
            attrs.update(self.site.attributes())
        return Advertisement.make(
            ADV_SERVICE, f"triana:{self.peer.peer_id}", self.peer.peer_id, attrs=attrs
        )

    # -- heartbeats ---------------------------------------------------------------
    def _heartbeat_loop(self):
        """Beat toward each controller this worker holds deployments from,
        naming them, while it holds or is deploying any: the deployments
        are the lease, and only their release ends the loop.

        ``sim.drive`` runs it: it yields the interval to wait.  The first
        beat is one interval after the deploy arrived: deploys get a quiet
        network, and the detector's watch() grace covers the gap.
        """
        yield self._hb_interval
        while self.deployments or self._deploying:
            if self.peer.online:
                held: dict[str, list[str]] = {}
                for dep_id, dep in self.deployments.items():
                    held.setdefault(dep.spec.controller, []).append(dep_id)
                for controller, dep_ids in sorted(held.items()):
                    self.stats.heartbeats_sent += 1
                    self.peer.send(
                        controller, "triana-heartbeat",
                        payload=(self.peer.peer_id, tuple(dep_ids)), size_bytes=48,
                    )
            yield self._hb_interval
        self._hb_running = False

    def _on_release(self, message: Message) -> None:
        """Drop the named deployments this controller placed here; work
        they already accepted still finishes and ships."""
        for dep_id in message.payload:
            dep = self.deployments.get(dep_id)
            if dep is not None and dep.spec.controller == message.src:
                del self.deployments[dep_id]

    # -- deployment --------------------------------------------------------------
    def _on_deploy(self, message: Message) -> None:
        spec: DeploymentSpec = message.payload
        # A bad interval arrives off the wire and starts nothing: a NaN
        # would stop the loop for good, and an infinite one park it.
        if 0.0 < spec.heartbeat_interval < math.inf:
            self._hb_interval = spec.heartbeat_interval
            if not self._hb_running:
                self._hb_running = True
                self.sim.drive(self._heartbeat_loop())
        if spec.deployment_id in self.deployments:
            # Duplicate deploy (the controller re-asks after a lost ack): re-ack.
            self._ack_deploy(spec)
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
        """Fetch modules (through ``Peer.ask``), authorise, build the engine, ack."""
        tracer = self.sim.tracer
        span = tracer.begin(
            "worker.deploy", category="service", track=self.peer.peer_id,
            deployment=spec.deployment_id, controller=spec.controller,
        )
        try:
            required = sorted(unit_names_in_xml(spec.xml))
            for unit_name in required:
                pkg = yield from self.peer.ask(
                    partial(self.cache.ensure, unit_name), f"module {unit_name!r}"
                )
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
            # The sandbox admitted every unit that declares SITE_READ:
            # those, and only those, read this site's tables.
            tables = MappingProxyType(self.site.tables if self.site else {})
            for unit in engine.units.values():
                if SITE_READ in type(unit).REQUIRED_PERMISSIONS:
                    unit.site_tables = tables
        except Exception as exc:  # a fetch, sandbox or build failure refuses
            self.stats.deploy_failures += 1
            span.end(outcome="failed", error=type(exc).__name__)
            # Only a fetch that gave up may go otherwise when asked again.
            final = not isinstance(exc, RequestFailed)
            self._ack_deploy(spec, f"{type(exc).__name__}: {exc}", final)
            return
        dep = _Deployment(spec=spec, engine=engine)
        self.deployments[spec.deployment_id] = dep
        self.stats.deployments += 1
        span.end(outcome="deployed", units=len(required))
        dep.loop = self._exec_loop(dep)
        self._drive(dep)  # runs it to its first ask: an idle loop
        self._ack_deploy(spec)

    def _ack_deploy(
        self, spec: DeploymentSpec, error: Optional[str] = None, final: bool = False
    ) -> None:
        """Ack a deploy: ``error`` None on success, else the refusal, which
        is ``final`` when asking again cannot change it."""
        self.peer.send(
            spec.controller, "deploy-ack", payload=(spec.deployment_id, error, final),
            size_bytes=64 if error is None else 128,
        )

    # -- execution ------------------------------------------------------------------
    def _on_exec(self, message: Message) -> None:
        """Accept the iterations of one ``group-exec``; a single is a batch
        of one.  Each item takes the same dedup / idempotence path and its
        result ships on its own."""
        deployment_id, items = message.payload
        dep = self.deployments.get(deployment_id)
        if dep is None:
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
        the caller's (a modelled sleep in :meth:`_exec_loop`, a kernel
        process in ``tests/test_exec_loop.py``'s reference loop)."""
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
        """The tail of one execution, whatever loop ran it (after the
        modelled sleep in :meth:`_exec_loop`, or in the reference loop)."""
        if span is not None:
            span.end(modelled_seconds=duration)
        self.stats.busy_seconds += duration
        self.stats.iterations += 1
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
        if dep.spec.forward is None:
            self.peer.send(
                dep.spec.controller,
                "group-result",
                payload=(dep.spec.deployment_id, iteration, outputs),
                size_bytes=size,
            )
        else:
            next_peer, next_dep = dep.spec.forward
            self.peer.send(
                next_peer,
                "group-exec",
                payload=(next_dep, [(iteration, outputs)]),
                size_bytes=size,
            )
