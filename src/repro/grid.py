"""One-call Consumer Grid assembly — the library's front door.

"To deploy the Consumer Grid, a user would need to have the Triana peer
installed locally."  One peer, one assembly: :class:`GridNode` turns a
:class:`~repro.config.GridConfig` and the roles a process hosts into
peers and services on one fabric.  :class:`ConsumerGrid` hosts every
role — the network, a discovery strategy, a module repository
("downloaded from a pre-defined portal"), a controller and a fleet of
volunteer workers running Triana service daemons — in one line;
:mod:`repro.deployment` spreads the same roles over OS processes.

Example
-------
>>> from repro import ConsumerGrid
>>> from tests.test_core_taskgraph import fig1_graph   # doctest: +SKIP
>>> grid = ConsumerGrid(n_workers=4, seed=42)          # doctest: +SKIP
>>> report = grid.run(graph, iterations=20)            # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Mapping, Optional

from .config import GridConfig
from .core.registry import UnitRegistry, global_registry
from .core.taskgraph import TaskGraph
from .faults import FaultInjector
from .mobility.repository import ModuleRepository
from .mobility.sandbox import SandboxStats
from .observe import (
    HealthMonitor,
    TelemetrySampler,
    Tracer,
    default_detectors,
    telemetry_row,
    write_metrics,
    write_trace,
)
from .p2p.discovery import (
    CentralIndexDiscovery,
    DiscoveryService,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from .p2p.errors import RequestFailed
from .p2p.network import NodeProfile, SimNetwork, Transport
from .p2p.peer import Peer
from .resources.availability import AvailabilityModel
from .service.controller import RunReport, TrianaController
from .service.worker import Site, TrianaService
from .simkernel import Simulator, check_horizon
from .transport import RealtimeSimulator, TcpTransport

__all__ = ["ConsumerGrid", "GridNode", "DISCOVERY", "PORTAL_ID", "CONTROLLER_ID"]

#: Role (and peer id) hosting the module repository and the discovery
#: index / rendezvous — the paper's portal machine.
PORTAL_ID = "portal"
#: Role (and peer id) of the Triana controller.
CONTROLLER_ID = "controller"

#: discovery name → strategy class (``GridConfig.discovery``, ``--discovery``)
DISCOVERY: dict[str, type[DiscoveryService]] = {
    "central": CentralIndexDiscovery,
    "flooding": FloodingDiscovery,
    "rendezvous": RendezvousDiscovery,
}


class GridNode:
    """The share of a Consumer Grid one process hosts, on one fabric.

    ``roles`` names the peers to host, in order: :data:`PORTAL_ID`,
    :data:`CONTROLLER_ID`, and any other name is a worker.  The fabric is
    the one ``config.transport`` names (``endpoint`` = the socket
    fabric's ``host`` / ``port`` / ``peers``); it is closed again if the
    assembly fails.  ``registry`` (the portal's unit registry),
    ``tracer`` (a caller-owned tracer; implies tracing) and ``sites``
    (worker role → its :class:`~repro.service.worker.Site`) are runtime
    objects and so not part of the config.
    """

    #: installed by :class:`ConsumerGrid` only (chaos layer, live telemetry)
    fault_injector: Optional[FaultInjector] = None
    telemetry: Optional[TelemetrySampler] = None
    health: Optional[HealthMonitor] = None

    def __init__(
        self,
        config: GridConfig,
        roles: Iterable[str],
        registry: Optional[UnitRegistry] = None,
        tracer: Optional[Tracer] = None,
        sites: Optional[Mapping[str, Site]] = None,
        **endpoint,
    ):
        if tracer is None and (config.trace or config.telemetry):
            tracer = Tracer()
        self.config = config
        self._sites = dict(sites or {})
        if config.transport == "tcp":
            self.sim = RealtimeSimulator(seed=config.seed, tracer=tracer)
            self.transport: Transport = TcpTransport(self.sim, **endpoint)
        else:
            self.sim = Simulator(seed=config.seed, tracer=tracer)
            # (an endpoint here is SimNetwork's TypeError: sockets need "tcp")
            self.transport = SimNetwork(self.sim, contention=config.contention, **endpoint)
        try:
            self._assemble(roles, registry)
        except BaseException:
            self.transport.close()
            raise

    def _assemble(self, roles: Iterable[str], registry: Optional[UnitRegistry]) -> None:
        cfg = self.config
        self.discovery = DISCOVERY[cfg.discovery](query_window=cfg.query_window)
        if isinstance(self.discovery, CentralIndexDiscovery):
            # The index is the portal, in whichever process that lives.
            self.discovery.set_index_id(PORTAL_ID)
        self.workers: dict[str, TrianaService] = {}
        self.worker_peers: dict[str, Peer] = {}
        for role in roles:
            if role == PORTAL_ID:
                self.registry = registry if registry is not None else global_registry()
                self.portal = self._peer(PORTAL_ID, cfg.controller_profile)
                self.repository = ModuleRepository(
                    self.portal, self.registry,
                    chunk_bytes=cfg.modules.module_chunk_bytes,
                )
                if isinstance(self.discovery, RendezvousDiscovery):
                    self.discovery.add_rendezvous(self.portal)
            elif role == CONTROLLER_ID:
                self.controller_peer = self._peer(CONTROLLER_ID, cfg.controller_profile)
                self.controller = TrianaController(
                    self.controller_peer,
                    self.discovery,
                    recovery=cfg.recovery,
                )
            else:
                self.add_worker(role, site=self._sites.get(role))

    def _peer(self, peer_id: str, profile: NodeProfile) -> Peer:
        peer = Peer(peer_id, self.transport, profile=profile)
        self.discovery.attach(peer)
        return peer

    def add_worker(
        self,
        name: str,
        profile: Optional[NodeProfile] = None,
        site: Optional[Site] = None,
    ) -> TrianaService:
        """The per-worker step: peer, service daemon, advertisement.

        Every worker of every grid is made here.  ``profile`` overrides
        ``config.worker_profile`` (a heterogeneous fleet); ``site`` is what
        the worker offers besides its CPU, advertised for ``p2p``
        placement (:class:`~repro.service.worker.Site`).  Added to a grid
        that is already built, the advertisement still has to land:
        settle with ``grid.sim.run()``.
        """
        cfg = self.config
        peer = self._peer(name, profile or cfg.worker_profile)
        hosting = dict(
            repository_host=PORTAL_ID,
            sandbox=dataclasses.replace(cfg.sandbox, stats=SandboxStats()),
            efficiency=cfg.worker_efficiency,
            modules=cfg.modules,
            site=site,
        )
        service = TrianaService(peer, **hosting)
        self.discovery.publish(peer, service.advertisement())
        self.workers[name] = service
        self.worker_peers[name] = peer
        return service

    def _ensure_tracing(self) -> None:
        """Late opt-in: swap a recording tracer in if none is installed.

        Liveness transitions before the install went unrecorded, so they
        are seeded: already-offline peers must count as unavailable.
        """
        if not self.sim.tracer.enabled:
            self.sim.install_tracer(Tracer())
            self.transport.trace_liveness_snapshot()

    def telemetry_sources(self) -> list[tuple[str, Callable[[], dict]]]:
        """What a telemetry row reads besides the kernel, in row order.

        Each source is a counter set its component already keeps; the
        live sampler (:meth:`ConsumerGrid.enable_telemetry`) and the
        ``metrics_out`` file of :meth:`run` both read these.
        """
        sim, workers, controller = self.sim, self.workers, self.controller
        sources = [
            ("net", self.transport.telemetry_sample),
            ("workers", lambda: {
                wid: svc.telemetry_sample() for wid, svc in sorted(workers.items())
            }),
            ("detector", lambda: controller.detector.telemetry_sample(sim.now)),
            ("reputation", lambda: controller.reputation.summary()),
        ]
        if self.fault_injector is not None:
            sources.append(("faults", self.fault_injector.telemetry_sample))
        return sources

    # -- running applications ------------------------------------------------------
    def discover_workers(self, min_cpu_flops: float = 0.0) -> list[str]:
        """Synchronous worker discovery (runs the sim until the reply)."""
        ev = self.controller.discover_workers(min_cpu_flops)
        return self.sim.run(until=ev)

    def run(
        self,
        graph: TaskGraph,
        iterations: int,
        workers: Optional[list[str]] = None,
        probes: tuple[str, ...] = (),
        run_until: Optional[float] = None,
        dispatch: str = "round_robin",
        verification: str = "none",
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        telemetry_out: Optional[str] = None,
    ) -> RunReport:
        """Deploy and execute a task graph; blocks until completion.

        ``workers`` defaults to every discovered worker (an empty answer
        is asked again through :meth:`~repro.p2p.peer.Peer.ask`); ``dispatch``
        selects the farm dealing policy (any name from
        :func:`~repro.service.placement.dispatch_policy_names`, e.g.
        ``round_robin`` | ``weighted``).  Group *distribution* policies
        come from the graph's ``<group policy="...">`` attributes and
        resolve against the global policy registry
        (:func:`~repro.service.policies.register_policy` adds one).
        ``verification`` turns on result-integrity checking (``none`` |
        ``replicate-<k>`` | ``spot-<p>``, see
        :mod:`repro.service.integrity`) — the defence against the chaos
        layer's saboteur faults.
        ``trace_out`` writes the run's trace to that path afterwards
        (``.json`` → Chrome/Perfetto, ``.jsonl`` → event log,
        ``.txt``/``.log`` → text timeline) and switches tracing on for
        the run if it wasn't already.  ``metrics_out`` writes the grid's
        cumulative counters at the end of the run as one JSON telemetry
        row (``sim``, ``net``, ``workers``, ``detector``, ``reputation``
        and, under a fault plan, ``faults``); it does not switch tracing
        on.  ``telemetry_out`` writes the sampler's buffered rows
        as JSONL (requires ``telemetry=True`` at construction, or a
        prior :meth:`ConsumerGrid.enable_telemetry` call).
        """
        if trace_out is not None:
            # Before discovery, so the run's p2p/mobility/service spans
            # are all captured.
            self._ensure_tracing()
        if run_until is not None:
            # Before anything is dealt, so a bad horizon leaves the grid usable.
            check_horizon(run_until)
        if workers is None:
            ask = self.controller_peer.ask(self.controller.discover_workers, "workers")
            try:
                workers = self.sim.run(until=self.sim.process(ask, name="discover"))
            except RequestFailed:
                workers = []  # a distributed run refuses; a local one needs none
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
            row = telemetry_row(self.sim, self.telemetry_sources())
            write_metrics({"t": self.sim.now, **row}, metrics_out)
        if telemetry_out is not None:
            if self.telemetry is None:
                raise ValueError(
                    "telemetry_out requires ConsumerGrid(telemetry=True) "
                    "or a prior enable_telemetry() call"
                )
            self.telemetry.export_jsonl(telemetry_out)
        return report


class ConsumerGrid(GridNode):
    """A complete Consumer Grid in one process: every role on one fabric.

    ``ConsumerGrid(n_workers=4, seed=42, trace=True)`` is
    ``ConsumerGrid(GridConfig().replace(n_workers=4, seed=42, trace=True))``:
    keyword settings are changes to ``config`` (see
    :class:`~repro.config.GridConfig` and the table in
    docs/architecture.md for what can be set).  With
    ``transport="tcp"`` every peer still lives in this process, but
    frames cross real sockets through the canonical codec; for grids
    spanning OS processes use :mod:`repro.deployment`.
    """

    def __init__(
        self,
        config: GridConfig = GridConfig(),
        *,
        registry: Optional[UnitRegistry] = None,
        tracer: Optional[Tracer] = None,
        **changes,
    ):
        config = config.replace(**changes)
        workers = (f"worker-{i}" for i in range(config.n_workers))
        super().__init__(
            config, (PORTAL_ID, CONTROLLER_ID, *workers), registry, tracer
        )

    def _assemble(self, roles, registry) -> None:
        super()._assemble(roles, registry)
        self.availability: dict[str, AvailabilityModel] = {}
        if isinstance(self.discovery, FloodingDiscovery):
            self.transport.random_overlay(degree=4)
        self.sim.run()  # settle publishes

        # Chaos layer: scheduled *after* the settle so a plan's t=0 faults
        # cannot fire during assembly, before any run is in flight.
        if self.config.fault_plan is not None:
            peers = {
                PORTAL_ID: self.portal,
                CONTROLLER_ID: self.controller_peer,
                **self.worker_peers,
            }
            self.fault_injector = FaultInjector(
                self.sim, self.transport, self.config.fault_plan, peers=peers
            ).schedule()

        # Live telemetry: installed last so its sources can read every
        # subsystem (including the fault injector) already in place.
        if self.config.telemetry:
            self.enable_telemetry()

    def enable_telemetry(self, interval: Optional[float] = None) -> TelemetrySampler:
        """Install the telemetry sampler and health monitor.

        Idempotent; callable post-construction too (e.g. from tooling
        that builds a grid first).  Enables tracing if it was off —
        liveness is snapshotted so utilization accounting stays right.
        ``interval`` defaults to ``config.telemetry_interval``; like it,
        it must be positive and finite (a bad one changes nothing).
        """
        if self.telemetry is not None:
            return self.telemetry
        if interval is None:
            interval = self.config.telemetry_interval
        sampler = TelemetrySampler(interval=interval)
        self._ensure_tracing()
        self.sim.install_sampler(sampler)
        monitor = HealthMonitor(
            detectors=default_detectors(self.config.straggler_z)
        )
        monitor.attach(self.sim.tracer)
        sampler.attach_monitor(monitor)
        for name, fn in self.telemetry_sources():
            sampler.add_source(name, fn)
        self.telemetry = sampler
        self.health = monitor
        return sampler

    # -- volunteer dynamics -----------------------------------------------------
    def install_availability(
        self, factory: Callable[[str], AvailabilityModel]
    ) -> None:
        """Give every worker an availability model (churn, screensaver...)."""
        for peer_id, peer in self.worker_peers.items():
            model = factory(peer_id)
            model.install(peer)
            self.availability[peer_id] = model
