"""One-call Consumer Grid assembly — the library's front door.

"To deploy the Consumer Grid, a user would need to have the Triana peer
installed locally."  :class:`ConsumerGrid` builds the full simulated
deployment in one line: the network, a discovery strategy, a module
repository ("downloaded from a pre-defined portal"), a controller, and a
fleet of volunteer workers running Triana service daemons.

Example
-------
>>> from repro import ConsumerGrid
>>> from tests.test_core_taskgraph import fig1_graph   # doctest: +SKIP
>>> grid = ConsumerGrid(n_workers=4, seed=42)          # doctest: +SKIP
>>> report = grid.run(graph, iterations=20)            # doctest: +SKIP
"""

from __future__ import annotations

from typing import Callable, Optional

from .core.registry import UnitRegistry, global_registry
from .core.taskgraph import TaskGraph
from .mobility.repository import ModuleRepository
from .mobility.sandbox import SandboxPolicy
from .observe import (
    FlightRecorder,
    HealthMonitor,
    TelemetrySampler,
    Tracer,
    default_detectors,
    write_metrics,
    write_trace,
)
from .p2p.discovery import (
    CentralIndexDiscovery,
    DiscoveryService,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from .p2p.network import DSL_PROFILE, NodeProfile, SimNetwork, Transport
from .p2p.peer import Peer
from .resources.availability import AvailabilityModel
from .service.controller import RunReport, TrianaController
from .service.worker import TrianaService
from .simkernel import Simulator
from .transport import TRANSPORTS, RealtimeSimulator, TcpTransport

__all__ = ["ConsumerGrid"]


_DISCOVERY: dict[str, type[DiscoveryService]] = {
    "central": CentralIndexDiscovery,
    "flooding": FloodingDiscovery,
    "rendezvous": RendezvousDiscovery,
}


class ConsumerGrid:
    """A complete simulated Consumer Grid deployment.

    Parameters
    ----------
    n_workers:
        Number of volunteer worker peers.
    seed:
        Simulation seed (full determinism).
    discovery:
        ``central`` | ``flooding`` | ``rendezvous``.
    worker_profile:
        Link/CPU profile for volunteers (default: 2003 DSL consumer).
    sandbox / cache_policy / worker_efficiency:
        Forwarded to each worker's :class:`TrianaService`.
    trace:
        Record spans/events/metrics from construction on (see
        :mod:`repro.observe` and docs/observability.md).
    tracer:
        Use a specific (caller-owned) tracer instead; implies ``trace``.
    telemetry:
        Enable the live telemetry sampler and health monitor (implies
        ``trace``): periodic grid snapshots every ``telemetry_interval``
        sim seconds, online anomaly detection, a ``health`` section on
        the run report, and a flight recorder for post-mortems.  Like
        tracing it is strictly passive — results are bit-identical.
    telemetry_interval / health_config:
        Sampler tick spacing and keyword overrides for
        :func:`~repro.observe.health.default_detectors`.
    module_replicas:
        Pre-seed each group's modules onto this many workers before
        deploying and let every worker cache serve as a cooperative
        replica (discovery-routed fetches, digest revalidation).  0 (the
        default) keeps the seed's repository-only protocol.
    module_chunk_bytes:
        Split package transfers larger than this into pipelined chunks;
        ``None`` ships each package as one message.
    cache_fetch_timeout:
        Per-fetch timeout of the worker module caches — raise it for
        experiments shipping multi-megabyte packages over consumer DSL.
    """

    def __init__(
        self,
        n_workers: int = 4,
        seed: int = 0,
        discovery: str = "central",
        worker_profile: Optional[NodeProfile] = None,
        controller_profile: Optional[NodeProfile] = None,
        registry: Optional[UnitRegistry] = None,
        sandbox_factory: Optional[Callable[[], SandboxPolicy]] = None,
        cache_policy: str = "on_demand",
        worker_efficiency: float = 1.0,
        query_window: float = 2.0,
        retry_timeout: float = 900.0,
        retry_interval: float = 300.0,
        jitter_fraction: float = 0.0,
        contention: bool = False,
        loss_fraction: float = 0.0,
        corrupt_fraction: float = 0.0,
        duplicate_fraction: float = 0.0,
        reorder_fraction: float = 0.0,
        heartbeat_interval: float = 60.0,
        suspect_after_missed: int = 3,
        backoff_base: Optional[float] = None,
        backoff_max: float = 120.0,
        speculation_threshold: float = 0.9,
        speculation_age: Optional[float] = None,
        fault_plan=None,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
        telemetry: bool = False,
        telemetry_interval: float = 5.0,
        health_config: Optional[dict] = None,
        policy_registry=None,
        module_replicas: int = 0,
        module_chunk_bytes: Optional[int] = None,
        cache_fetch_timeout: float = 30.0,
        transport: str = "sim",
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        fabric = TRANSPORTS.lookup(transport)  # unknown name: ValueError
        if discovery not in fabric.supported_discovery:
            raise ValueError(
                f"discovery {discovery!r} is not supported on the "
                f"{transport!r} transport "
                f"(supported: {', '.join(fabric.supported_discovery)})"
            )
        if tracer is None and (trace or telemetry):
            tracer = Tracer()
        chaos = {
            "jitter_fraction": jitter_fraction,
            "contention": contention,
            "loss_fraction": loss_fraction,
            "corrupt_fraction": corrupt_fraction,
            "duplicate_fraction": duplicate_fraction,
            "reorder_fraction": reorder_fraction,
        }
        if transport == "tcp":
            # Single-process loopback deployment: every peer still lives
            # in this process, but frames cross real sockets through the
            # canonical codec.  For grids spanning OS processes use
            # repro.deployment (which the CLI's --transport tcp drives).
            bad = sorted(
                k for k, v in {**chaos, "fault_plan": fault_plan}.items() if v
            )
            if bad:
                raise ValueError(
                    "chaos modelling is simulation apparatus; not supported "
                    f"on the tcp transport: {', '.join(bad)}"
                )
            self.sim = RealtimeSimulator(seed=seed, tracer=tracer)
            self.transport: Transport = TcpTransport(self.sim)
        else:
            self.sim = Simulator(seed=seed, tracer=tracer)
            self.transport = SimNetwork(self.sim, **chaos)
        self.discovery = _DISCOVERY[discovery](query_window=query_window)
        self.registry = registry if registry is not None else global_registry()

        # The portal: hosts the module repository and (for central
        # discovery) the advertisement index.
        self.portal = Peer("portal", self.transport, profile=controller_profile)
        self.discovery.attach(self.portal)
        self.repository = ModuleRepository(
            self.portal, self.registry, chunk_bytes=module_chunk_bytes
        )

        self.controller_peer = Peer(
            "controller", self.transport, profile=controller_profile
        )
        self.discovery.attach(self.controller_peer)
        self.controller = TrianaController(
            self.controller_peer,
            self.discovery,
            retry_timeout=retry_timeout,
            retry_interval=retry_interval,
            heartbeat_interval=heartbeat_interval,
            suspect_after_missed=suspect_after_missed,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
            speculation_threshold=speculation_threshold,
            speculation_age=speculation_age,
            policy_registry=policy_registry,
            preseed_replicas=module_replicas,
        )

        if isinstance(self.discovery, CentralIndexDiscovery):
            self.discovery.set_index(self.portal)
        elif isinstance(self.discovery, RendezvousDiscovery):
            self.discovery.add_rendezvous(self.portal)

        self.workers: dict[str, TrianaService] = {}
        self.worker_peers: dict[str, Peer] = {}
        self.availability: dict[str, AvailabilityModel] = {}
        for i in range(n_workers):
            peer = Peer(f"worker-{i}", self.transport, profile=worker_profile or DSL_PROFILE)
            self.discovery.attach(peer)
            service = TrianaService(
                peer,
                repository_host="portal",
                sandbox=sandbox_factory() if sandbox_factory else SandboxPolicy(),
                cache_policy=cache_policy,
                efficiency=worker_efficiency,
                module_discovery=self.discovery if module_replicas > 0 else None,
                cache_revalidate="digest" if module_replicas > 0 else "full",
                cache_chunk_bytes=module_chunk_bytes,
                cache_fetch_timeout=cache_fetch_timeout,
            )
            self.discovery.publish(peer, service.advertisement())
            self.workers[peer.peer_id] = service
            self.worker_peers[peer.peer_id] = peer

        if isinstance(self.discovery, FloodingDiscovery):
            self.transport.random_overlay(degree=4)
        self.sim.run()  # settle publishes

        # Chaos layer: scheduled *after* the settle so a plan's t=0 faults
        # cannot fire during assembly, before any run is in flight.
        self.fault_injector = None
        if fault_plan is not None:
            from .faults import FaultInjector

            peers = {
                "portal": self.portal,
                "controller": self.controller_peer,
                **self.worker_peers,
            }
            self.fault_injector = FaultInjector(
                self.sim, self.transport, fault_plan, peers=peers
            ).schedule()

        # Live telemetry: installed last so its sources can read every
        # subsystem (including the fault injector) already in place.
        self.telemetry: Optional[TelemetrySampler] = None
        self.health: Optional[HealthMonitor] = None
        self.flight_recorder: Optional[FlightRecorder] = None
        if telemetry:
            self.enable_telemetry(
                interval=telemetry_interval, health_config=health_config
            )

    def enable_telemetry(
        self,
        interval: float = 5.0,
        health_config: Optional[dict] = None,
    ) -> TelemetrySampler:
        """Install the telemetry sampler, health monitor and flight recorder.

        Idempotent; callable post-construction too (e.g. from tooling
        that builds a grid first).  Enables tracing if it was off —
        liveness is snapshotted so utilization accounting stays right.
        """
        if self.telemetry is not None:
            return self.telemetry
        self._ensure_tracing()
        sampler = TelemetrySampler(interval=interval)
        self.sim.install_sampler(sampler)
        recorder = FlightRecorder()
        recorder.attach(self.sim.tracer)
        monitor = HealthMonitor(
            detectors=default_detectors(**(health_config or {}))
        )
        monitor.attach(self.sim.tracer)
        sampler.attach_monitor(monitor)

        sampler.add_source("net", self.transport.telemetry_sample)
        workers = self.workers
        def _workers_sample():
            return {
                wid: svc.telemetry_sample()
                for wid, svc in sorted(workers.items())
            }
        sampler.add_source("workers", _workers_sample)
        controller = self.controller
        sampler.add_source(
            "detector",
            lambda: controller.detector.telemetry_sample(self.sim.now),
        )
        sampler.add_source(
            "reputation", lambda: controller.reputation.summary()
        )
        if self.fault_injector is not None:
            sampler.add_source("faults", self.fault_injector.telemetry_sample)
        self.telemetry = sampler
        self.health = monitor
        self.flight_recorder = recorder
        return sampler

    def _ensure_tracing(self) -> None:
        """Late opt-in: swap a recording tracer in if none is installed.

        Liveness transitions before the install went unrecorded, so they
        are seeded: already-offline peers must count as unavailable.
        """
        if not self.sim.tracer.enabled:
            self.sim.install_tracer(Tracer())
            self.transport.trace_liveness_snapshot()

    def add_cluster_worker(
        self,
        name: str,
        nodes: int = 4,
        cores_per_node: int = 2,
        profile: Optional[NodeProfile] = None,
        efficiency: float = 1.0,
    ):
        """Add a peer that fronts a GRAM-managed cluster (§3.1).

        Returns the :class:`~repro.service.cluster.ClusterTrianaService`.
        """
        from .resources.gram import BatchQueue
        from .service.cluster import ClusterTrianaService

        peer = Peer(name, self.transport, profile=profile or DSL_PROFILE)
        self.discovery.attach(peer)
        queue = BatchQueue(
            self.sim,
            nodes=nodes,
            cores_per_node=cores_per_node,
            cpu_flops=peer.profile.cpu_flops * efficiency,
        )
        service = ClusterTrianaService(peer, repository_host="portal", queue=queue)
        self.discovery.publish(peer, service.advertisement())
        self.workers[name] = service
        self.worker_peers[name] = peer
        self.sim.run()
        return service

    # -- volunteer dynamics -----------------------------------------------------
    def install_availability(
        self, factory: Callable[[str], AvailabilityModel]
    ) -> None:
        """Give every worker an availability model (churn, screensaver...)."""
        for peer_id, peer in self.worker_peers.items():
            model = factory(peer_id)
            model.install(peer)
            self.availability[peer_id] = model

    # -- running applications ------------------------------------------------------
    def discover_workers(self, min_cpu_flops: float = 0.0) -> list[str]:
        """Synchronous worker discovery (runs the sim until the reply)."""
        ev = self.controller.discover_workers(min_cpu_flops)
        return self.sim.run(until=ev)

    def run(
        self,
        graph: TaskGraph,
        iterations: int,
        probes: tuple[str, ...] = (),
        workers: Optional[list[str]] = None,
        run_until: Optional[float] = None,
        dispatch: str = "round_robin",
        verification: str = "none",
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        telemetry_out: Optional[str] = None,
    ) -> RunReport:
        """Deploy and execute a task graph; blocks until completion.

        ``workers`` defaults to every discovered worker; ``dispatch``
        selects the farm dealing policy (any name from
        :func:`~repro.service.placement.dispatch_policy_names`, e.g.
        ``round_robin`` | ``weighted``).  Group *distribution* policies
        come from the graph's ``<group policy="...">`` attributes and
        resolve against the controller's
        :class:`~repro.service.policies.PolicyRegistry` — pass
        ``policy_registry`` at construction to inject custom ones.
        ``verification`` turns on result-integrity checking (``none`` |
        ``replicate-<k>`` | ``spot-<p>``, see
        :mod:`repro.service.integrity`) — the defence against the chaos
        layer's saboteur faults.
        ``trace_out`` writes the run's trace to that path afterwards
        (``.json`` → Chrome/Perfetto, ``.jsonl`` → event log,
        ``.txt``/``.log`` → text timeline); ``metrics_out`` writes the
        run's :class:`~repro.observe.metrics.MetricsRegistry` snapshot
        as JSON.  Either switches tracing on for the run if it wasn't
        already.  ``telemetry_out`` writes the sampler's buffered rows
        as JSONL (requires ``telemetry=True`` at construction, or a
        prior :meth:`enable_telemetry` call).
        """
        if trace_out is not None or metrics_out is not None:
            # Before discovery, so the run's p2p/mobility/service spans
            # are all captured.
            self._ensure_tracing()
        if workers is None:
            workers = self.discover_workers()
        done = self.controller.run_distributed(
            graph, iterations, workers, probes, dispatch=dispatch,
            verification=verification,
        )
        if run_until is not None:
            self.sim.run(until=run_until)
            if not done.processed:
                raise TimeoutError(
                    f"run did not finish by t={run_until}; "
                    "increase the horizon or check churn settings"
                )
            report = done.value
        else:
            report = self.sim.run(until=done)
        if self.fault_injector is not None:
            report.recovery["faults"] = self.fault_injector.summary()
        if self.health is not None:
            report.health = {
                "sampler": self.telemetry.summary(),
                **self.health.summary(),
            }
        if trace_out is not None:
            write_trace(self.sim.tracer, trace_out)
        if metrics_out is not None:
            write_metrics(self.sim.tracer, metrics_out)
        if telemetry_out is not None:
            if self.telemetry is None:
                raise ValueError(
                    "telemetry_out requires ConsumerGrid(telemetry=True) "
                    "or a prior enable_telemetry() call"
                )
            self.telemetry.export_jsonl(telemetry_out)
        return report
