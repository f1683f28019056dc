"""Experiment runners E1–E14 (DESIGN.md §3).

Each function runs one paper-anchored experiment end-to-end and returns a
plain dict of results; the ``benchmarks/`` harness times them and prints
the paper-comparable tables recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..apps import inspiral as insp
from ..core.engine import LocalEngine
from ..core.xml_io import graph_from_string, graph_to_string
from ..grid import ConsumerGrid
from ..p2p.advertisement import ADV_SERVICE, Advertisement
from ..p2p.discovery import (
    CentralIndexDiscovery,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from ..p2p.network import LAN_PROFILE, SimNetwork
from ..p2p.peer import Peer
from ..resources.availability import AvailabilityModel, PoissonChurn, ScreensaverCycle
from ..simkernel import Interrupt, Simulator, Store
from .metrics import SECONDS_PER_YEAR, parallel_efficiency, spectrum_snr, speedup
from .workloads import LAN_GRID, fig1_graph, fig1_grouped, pipeline_graph

__all__ = [
    "e1_workflow_roundtrip",
    "e2_accumstat_snr",
    "e3_pipeline_throughput",
    "e4_galaxy_speedup",
    "e5_inspiral_sizing",
    "simulate_volunteer_fleet",
    "e7_discovery_scaling",
    "e8_mobility",
    "e9_volunteer_throughput",
    "e10_policy_ablation",
    "e14_split_axis",
    "e18_moddist",
]


# -- E1: Fig. 1 + Code Segment 1 ---------------------------------------------------


def e1_workflow_roundtrip() -> dict[str, Any]:
    """Build the Fig. 1 workflow, group it, serialise, parse, re-execute."""
    g = fig1_grouped()
    xml = graph_to_string(g)
    g2 = graph_from_string(xml)
    xml2 = graph_to_string(g2)
    engine = LocalEngine(g2)
    probe = engine.attach_probe("Accum")
    engine.run(iterations=20)
    spec = probe.last
    peak_hz = float(spec.frequencies()[np.argmax(spec.data)])
    return {
        "tasks": len(g.tasks),
        "group_members": len(g.task("GroupTask").graph.tasks),
        "xml_bytes": len(xml.encode()),
        "roundtrip_stable": xml == xml2,
        "peak_hz": peak_hz,
        "xml": xml,
    }


# -- E2: Fig. 2 — spectrum averaging pulls the signal out of noise -------------------


def e2_accumstat_snr(max_iterations: int = 20) -> dict[str, Any]:
    """SNR of the averaged power spectrum after n iterations, n=1..max.

    Also records whether the 64 Hz line is the *global* spectral peak —
    Fig. 2's visual claim: at n=1 the signal is buried (some noise bin is
    taller); by n=20 it is unmistakable.
    """
    engine = LocalEngine(fig1_graph())
    probe = engine.attach_probe("Accum")
    series = []
    for n in range(1, max_iterations + 1):
        engine.run(1)
        spec = probe.last
        signal_bin = int(round(64.0 / spec.df))
        peak_correct = int(np.argmax(spec.data[3:])) + 3 == signal_bin
        series.append((n, spectrum_snr(spec, signal_hz=64.0), peak_correct))
    snr1 = series[0][1]
    snr_last = series[-1][1]
    return {
        "series": series,
        "snr_1": snr1,
        "snr_n": snr_last,
        "gain": snr_last / snr1,
        "sqrt_n": float(np.sqrt(max_iterations)),
        "buried_at_1": not series[0][2],
        "visible_at_n": series[-1][2],
    }


# -- E3: Fig. 4 — distributed pipelined linear network --------------------------------


def e3_pipeline_throughput(
    stage_counts: tuple[int, ...] = (2, 4, 8), iterations: int = 16, seed: int = 0,
    trace: bool = False, telemetry: bool = False,
) -> dict[str, Any]:
    """Makespan/throughput of p2p pipelines of increasing depth.

    ``trace=True`` records the deepest pipeline's run and returns its
    tracer under ``"tracer"`` (tracing is passive, results unchanged).
    ``telemetry=True`` additionally samples live telemetry on every
    configuration — also passive, rows bit-identical.
    """
    rows = []
    tracer = None
    for n_stages in stage_counts:
        traced = trace and n_stages == stage_counts[-1]
        grid = ConsumerGrid(
            LAN_GRID, n_workers=n_stages, seed=seed, trace=traced, telemetry=telemetry
        )
        if traced:
            tracer = grid.sim.tracer
        report = grid.run(pipeline_graph(n_stages), iterations=iterations)
        stage_time = max(
            w.stats.busy_seconds / max(w.stats.iterations, 1)
            for w in grid.workers.values()
        )
        sequential = n_stages * iterations * stage_time
        ideal = (iterations + n_stages - 1) * stage_time
        rows.append(
            {
                "stages": n_stages,
                "makespan_s": report.makespan,
                "sequential_s": sequential,
                "ideal_pipeline_s": ideal,
                "throughput_per_s": iterations / report.makespan,
                "pipeline_gain": sequential / report.makespan,
            }
        )
    return {"iterations": iterations, "rows": rows, "tracer": tracer}


# -- E4: Case 1 — galaxy frame farm speedup -------------------------------------------


def e4_galaxy_speedup(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    n_frames: int = 16,
    n_particles: int = 400,
    resolution: int = 32,
    seed: int = 0,
    trace: bool = False,
    telemetry: bool = False,
) -> dict[str, Any]:
    """Render-farm makespan vs worker count ("a fraction of the time").

    ``trace=True`` records the widest configuration's run and returns
    its tracer under ``"tracer"`` (tracing is passive, rows unchanged).
    ``telemetry=True`` additionally samples live telemetry on every
    configuration — also passive, rows bit-identical.
    """
    from ..apps.galaxy import build_galaxy_graph, generate_snapshots

    rows = []
    t1 = None
    tracer = None
    for k in worker_counts:
        key = f"e4-dataset-{seed}-{k}"
        generate_snapshots(n_frames, n_particles, seed=seed, register_as=key)
        traced = trace and k == worker_counts[-1]
        grid = ConsumerGrid(
            LAN_GRID, n_workers=k, seed=seed, trace=traced, telemetry=telemetry
        )
        if traced:
            tracer = grid.sim.tracer
        graph = build_galaxy_graph(key, resolution=resolution, policy="parallel")
        report = grid.run(graph, iterations=n_frames)
        if t1 is None:
            t1 = report.makespan
        rows.append(
            {
                "workers": k,
                "makespan_s": report.makespan,
                "speedup": speedup(t1, report.makespan),
                "efficiency": parallel_efficiency(t1, report.makespan, k),
            }
        )
    return {"frames": n_frames, "rows": rows, "tracer": tracer}


# -- E5: Case 2 — inspiral real-time sizing under churn --------------------------------


@dataclass
class _Chunk:
    index: int
    arrival: float
    flops: float


def simulate_volunteer_fleet(
    n_peers: int,
    n_chunks: int = 40,
    chunk_seconds: float = insp.PAPER_CHUNK_SECONDS,
    n_templates: int = insp.PAPER_TEMPLATES_LOW,
    availability_factory: Optional[Callable[[str], AvailabilityModel]] = None,
    checkpointing: bool = True,
    cpu_flops: float = insp.PAPER_CPU_FLOPS,
    seed: int = 0,
    horizon_factor: float = 40.0,
) -> dict[str, Any]:
    """Stream 900 s strain chunks through a volunteer fleet.

    The paper's sizing argument made executable: each chunk costs
    5 h × 2 GHz of work (paper-calibrated); peers churn per the
    availability model; interrupted chunks either resume elsewhere from a
    checkpoint or restart.  Returns lag/throughput statistics.
    """
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, jitter_fraction=0.0)
    n_samples = int(chunk_seconds * insp.PAPER_SAMPLING_RATE)
    chunk_flops = insp.chunk_search_flops(n_samples, n_templates)
    queue = Store(sim)
    completions: dict[int, float] = {}
    restarts = {"n": 0}

    def arrivals(sim):
        for i in range(n_chunks):
            yield queue.put(_Chunk(index=i, arrival=sim.now, flops=chunk_flops))
            yield sim.timeout(chunk_seconds)

    sim.process(arrivals(sim), name="detector")

    models: list[AvailabilityModel] = []
    for p in range(n_peers):
        peer = Peer(f"vol-{p}", net)
        model = (availability_factory or (lambda pid: PoissonChurn(1e12, 1.0)))(
            peer.peer_id
        )
        model.install(peer)
        models.append(model)
        up_waiters: list = []

        def on_up(_peer, waiters=up_waiters):
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed(None)
            waiters.clear()

        model.on_up(on_up)
        state = {"proc": None, "computing": False}

        def on_down(_peer, state=state):
            if state["computing"] and state["proc"] is not None and state["proc"].is_alive:
                state["proc"].interrupt("churn")

        model.on_down(on_down)

        def worker(sim, peer=peer, waiters=up_waiters, state=state):
            while True:
                chunk = yield queue.get()
                remaining = chunk.flops
                while remaining > 0:
                    while not peer.online:
                        ev = sim.event()
                        waiters.append(ev)
                        yield ev
                    state["computing"] = True
                    started = sim.now
                    try:
                        yield sim.timeout(remaining / cpu_flops)
                        remaining = 0.0
                    except Interrupt:
                        done = (sim.now - started) * cpu_flops
                        if checkpointing:
                            remaining = max(remaining - done, 0.0)
                        else:
                            remaining = chunk.flops
                            restarts["n"] += 1
                    finally:
                        state["computing"] = False
                completions[chunk.index] = sim.now

        state["proc"] = sim.process(worker(sim), name=f"vol-worker-{p}")

    horizon = n_chunks * chunk_seconds * horizon_factor
    sim.run(until=horizon)

    lags = [
        completions[i] - (i * chunk_seconds + chunk_seconds)
        for i in sorted(completions)
    ]
    done_n = len(completions)
    half = done_n // 2
    early = float(np.mean(lags[:half])) if half else float("nan")
    late = float(np.mean(lags[half:])) if half else float("nan")
    # Backlog slope: lag growth per second of arrivals (least-squares over
    # the whole stream).  A fleet "keeps up" when lag is bounded — the
    # paper allows constant lag ("it can lag behind by several hours")
    # but not a growing one.
    if done_n >= 4:
        arrivals = np.array(sorted(completions)) * chunk_seconds
        lag_slope = float(np.polyfit(arrivals, np.array(lags), 1)[0])
    else:
        lag_slope = float("nan")
    keeps_up = done_n == n_chunks and (done_n < 4 or lag_slope < 0.1)
    return {
        "peers": n_peers,
        "chunks_offered": n_chunks,
        "chunks_done": done_n,
        "mean_lag_s": float(np.mean(lags)) if lags else float("inf"),
        "max_lag_s": float(np.max(lags)) if lags else float("inf"),
        "lag_early_s": early,
        "lag_late_s": late,
        "lag_slope": lag_slope,
        "keeps_up": keeps_up,
        "restarts": restarts["n"],
        "availability": float(np.mean([m.expected_availability() for m in models])),
    }


def e5_inspiral_sizing(
    peer_counts: tuple[int, ...] = (10, 20, 25, 30, 40),
    n_chunks: int = 30,
    mean_uptime: float = 4 * 3600.0,
    mean_downtime: float = 2 * 3600.0,
    seed: int = 0,
) -> dict[str, Any]:
    """The '20 dedicated PCs / more under churn' sizing table."""
    rows = []
    # Dedicated machines (the paper's baseline arithmetic).
    for k in peer_counts:
        r = simulate_volunteer_fleet(
            k, n_chunks=n_chunks, availability_factory=None, seed=seed
        )
        rows.append({"fleet": "dedicated", **r})
    # Consumer volunteers with churn.
    for k in peer_counts:
        r = simulate_volunteer_fleet(
            k,
            n_chunks=n_chunks,
            availability_factory=lambda pid: PoissonChurn(mean_uptime, mean_downtime),
            seed=seed,
        )
        rows.append({"fleet": "consumer", **r})
    analytic_dedicated = (
        insp.chunk_search_flops(
            int(insp.PAPER_CHUNK_SECONDS * insp.PAPER_SAMPLING_RATE),
            insp.PAPER_TEMPLATES_LOW,
        )
        / insp.PAPER_CPU_FLOPS
        / insp.PAPER_CHUNK_SECONDS
    )
    availability = mean_uptime / (mean_uptime + mean_downtime)
    return {
        "rows": rows,
        "analytic_dedicated_pcs": analytic_dedicated,
        "analytic_consumer_pcs": analytic_dedicated / availability,
        "availability": availability,
    }


# -- E7: discovery protocol scaling ----------------------------------------------------


def e7_discovery_scaling(
    sizes: tuple[int, ...] = (16, 64, 256),
    flood_ttl: int = 7,
    n_rendezvous: int = 4,
    seed: int = 0,
) -> dict[str, Any]:
    """Messages per query / recall / latency for the three strategies."""
    rows = []
    for n in sizes:
        for kind in ("central", "flooding", "rendezvous"):
            sim = Simulator(seed=seed)
            net = SimNetwork(sim, jitter_fraction=0.0)
            if kind == "central":
                disc = CentralIndexDiscovery()
            elif kind == "flooding":
                disc = FloodingDiscovery(ttl=flood_ttl, query_window=5.0)
            else:
                disc = RendezvousDiscovery()
            peers = [Peer(f"p{i}", net) for i in range(n)]
            for p in peers:
                disc.attach(p)
            net.random_overlay(degree=4)
            if kind == "central":
                disc.set_index(peers[0])
            elif kind == "rendezvous":
                for r in range(min(n_rendezvous, n)):
                    disc.add_rendezvous(peers[r])
            published = 0
            for p in peers[1:]:
                disc.publish(
                    p,
                    Advertisement.make(
                        ADV_SERVICE, f"svc-{p.peer_id}", p.peer_id,
                        attrs={"kind": "compute"},
                    ),
                )
                published += 1
            sim.run()
            before = net.stats.sent
            t0 = sim.now
            ev = disc.query(peers[n // 2], adv_type=ADV_SERVICE)
            results = sim.run(until=ev)
            latency = sim.now - t0
            sim.run()
            rows.append(
                {
                    "peers": n,
                    "strategy": kind,
                    "messages_per_query": net.stats.sent - before,
                    "recall": len(results) / published,
                    "latency_s": latency,
                }
            )
    return {"rows": rows}


# -- E8: code mobility ---------------------------------------------------------------


def e8_mobility(
    n_modules: int = 60,
    n_requests: int = 300,
    capacities: tuple[int, ...] = (4, 16, 64),
    version_bump_every: int = 50,
    seed: int = 0,
    trace: bool = False,
) -> dict[str, Any]:
    """On-demand vs sticky caching under a Zipf module workload.

    With ``trace=True`` the most cache-pressured configuration
    (``on_demand`` at the smallest capacity — maximum fetch/eviction
    churn) runs under a tracer, returned as ``"tracer"`` so the bench
    harness can emit a bottleneck profile alongside the rows.
    """
    from ..core.registry import UnitRegistry
    from ..core.units import Unit
    from ..mobility.cache import ModuleCache
    from ..mobility.repository import ModuleRepository
    from ..observe import Tracer

    registry = UnitRegistry()
    for i in range(n_modules):
        cls = type(f"Mod{i:03d}", (Unit,), {"CODE_SIZE": 20_000})
        registry.register(cls)
    names = registry.names()

    tracer = None
    rows = []
    for policy in ("on_demand", "sticky"):
        for capacity_slots in capacities:
            traced = trace and policy == "on_demand" and capacity_slots == min(capacities)
            if traced:
                tracer = Tracer()
            sim = Simulator(seed=seed, tracer=tracer if traced else None)
            net = SimNetwork(sim, jitter_fraction=0.0)
            portal = Peer("portal", net, profile=LAN_PROFILE)
            device = Peer("device", net, profile=LAN_PROFILE)
            repo = ModuleRepository(portal, registry)
            cache = ModuleCache(
                device,
                "portal",
                capacity_bytes=capacity_slots * 20_000,
                policy=policy,
            )
            rng = np.random.default_rng(seed)
            zipf_weights = 1.0 / np.arange(1, n_modules + 1)
            zipf_weights /= zipf_weights.sum()
            stale = 0

            def run(sim):
                nonlocal stale
                for r in range(n_requests):
                    name = names[int(rng.choice(n_modules, p=zipf_weights))]
                    if version_bump_every and r > 0 and r % version_bump_every == 0:
                        victim = names[int(rng.integers(n_modules))]
                        repo.publish_new_version(
                            victim, f"1.{r // version_bump_every}"
                        )
                    pkg = yield cache.ensure(name)
                    if pkg.version != repo.current_version(name):
                        stale += 1
                        cache.note_stale_use()

            done = sim.process(run(sim))
            sim.run(until=done)
            rows.append(
                {
                    "policy": policy,
                    "cache_slots": capacity_slots,
                    "requests": n_requests,
                    "bytes_downloaded": cache.stats.bytes_downloaded,
                    "network_messages": net.stats.sent,
                    "evictions": cache.stats.evictions,
                    "stale_executions": stale,
                }
            )
    out: dict[str, Any] = {"modules": n_modules, "rows": rows}
    if tracer is not None:
        out["tracer"] = tracer
    return out


# -- E9: volunteer harvest + admin-cost contrast ----------------------------------------


def e9_volunteer_throughput(
    fleet_sizes: tuple[int, ...] = (100, 1000),
    days: float = 7.0,
    idle_fraction: float = 0.6,
    seed: int = 0,
) -> dict[str, Any]:
    """Harvested CPU time under screensaver availability, SETI-style,
    plus the Globus-vs-virtual-account administration contrast."""
    from ..resources.accounts import (
        CertificateAuthority,
        GlobusAccountManager,
        VirtualAccountManager,
    )

    horizon = days * 86_400.0
    rows = []
    for n in fleet_sizes:
        sim = Simulator(seed=seed)
        net = SimNetwork(sim, jitter_fraction=0.0)
        models = []
        for i in range(n):
            peer = Peer(f"v{i}", net)
            model = ScreensaverCycle(idle_fraction=idle_fraction)
            model.install(peer)
            models.append(model)
        sim.run(until=horizon)
        harvested = sum(m.stats.online_seconds for m in models)
        rows.append(
            {
                "volunteers": n,
                "days": days,
                "harvested_cpu_years": harvested / SECONDS_PER_YEAR,
                "ceiling_cpu_years": n * horizon / SECONDS_PER_YEAR,
                "harvest_fraction": harvested / (n * horizon),
            }
        )

    # Administration contrast for the largest fleet.
    n = max(fleet_sizes)
    ca = CertificateAuthority("grid-ca")
    globus = GlobusAccountManager(ca)
    for i in range(n):
        globus.create_account(f"user-{i}")
        ca.issue(f"user-{i}", now=0.0)
    virtual = VirtualAccountManager("consumer-pc")
    for i in range(n):
        virtual.charge(f"user-{i}", 100.0)
    admin = {
        "users": n,
        "globus_admin_operations": globus.admin_operations,
        "globus_certificates": ca.issued,
        "virtual_admin_operations": virtual.admin_operations,
        "virtual_billing_lines": len(virtual.billing),
    }
    return {"rows": rows, "admin": admin}


# -- E14: work-splitting axis for the inspiral search --------------------------------------


def e14_split_axis(
    n_workers: int = 20,
    n_templates: int = insp.PAPER_TEMPLATES_LOW,
    chunk_seconds: float = insp.PAPER_CHUNK_SECONDS,
    up_bps: float = 256e3 / 8,
) -> dict[str, Any]:
    """Chunk-parallel (the paper's farm) vs template-parallel splitting.

    Analytic comparison at paper scale.  Chunk-parallel ships each 7.2 MB
    chunk to exactly one worker and pays the full 5 h there; template-
    parallel ships each chunk to *every* worker but each searches 1/k of
    the bank.  The trade: per-chunk latency (better for template split)
    vs total wire volume (k× worse) against a consumer uplink.
    """
    n_samples = int(chunk_seconds * insp.PAPER_SAMPLING_RATE)
    chunk_flops = insp.chunk_search_flops(n_samples, n_templates)
    chunk_bytes = insp.PAPER_CHUNK_BYTES
    compute_one = chunk_flops / insp.PAPER_CPU_FLOPS

    rows = []
    # Chunk-parallel: one transfer per chunk, full search on one worker.
    transfer_chunk = chunk_bytes / up_bps
    rows.append(
        {
            "axis": "chunk-parallel (paper)",
            "transfers_per_chunk_mb": chunk_bytes / 1e6,
            "per_chunk_latency_h": (transfer_chunk + compute_one) / 3600.0,
            "steady_state_workers_needed": compute_one / chunk_seconds,
            "uplink_share_per_chunk": transfer_chunk / chunk_seconds,
        }
    )
    # Template-parallel: every worker gets the chunk, searches bank/k.
    transfer_all = n_workers * chunk_bytes / up_bps  # serialised source uplink
    rows.append(
        {
            "axis": f"template-parallel (k={n_workers})",
            "transfers_per_chunk_mb": n_workers * chunk_bytes / 1e6,
            "per_chunk_latency_h": (transfer_all + compute_one / n_workers) / 3600.0,
            "steady_state_workers_needed": compute_one / chunk_seconds,
            "uplink_share_per_chunk": transfer_all / chunk_seconds,
        }
    )
    return {"rows": rows, "workers": n_workers}


# -- E10: distribution-policy / granularity ablation -------------------------------------


def e10_policy_ablation(
    iterations: int = 16, seed: int = 0, trace: bool = False,
    telemetry: bool = False,
) -> dict[str, Any]:
    """Same workload under parallel / p2p / chunked policy, plus granularity.

    ``trace=True`` records the chunked-policy run and returns its tracer
    under ``"tracer"`` (tracing is passive, rows unchanged) so the bench
    gate watches the batching critical path.  ``telemetry=True``
    additionally samples live telemetry on every configuration — also
    passive, rows bit-identical.
    """
    rows = []
    tracer = None
    for policy in ("parallel", "p2p", "chunked"):
        g = pipeline_graph(4)
        g.task("Chain").policy = policy
        traced = trace and policy == "chunked"
        grid = ConsumerGrid(
            LAN_GRID, n_workers=4, seed=seed, trace=traced, telemetry=telemetry
        )
        if traced:
            tracer = grid.sim.tracer
        report = grid.run(g, iterations=iterations)
        rows.append(
            {
                "policy": policy,
                "stages": 4,
                "makespan_s": report.makespan,
                "throughput_per_s": iterations / report.makespan,
            }
        )
    # Granularity: farm groups of width 1 vs 2 vs 4 filter stages.
    granularity = []
    for width in (1, 2, 4):
        g = pipeline_graph(width)
        g.task("Chain").policy = "parallel"
        grid = ConsumerGrid(LAN_GRID, n_workers=4, seed=seed, telemetry=telemetry)
        report = grid.run(g, iterations=iterations)
        granularity.append(
            {
                "group_width": width,
                "makespan_s": report.makespan,
                "bytes_sent": grid.transport.stats.bytes_sent,
            }
        )
    return {"policies": rows, "granularity": granularity, "tracer": tracer}


# -- E18: module distribution fast path ---------------------------------------------


def e18_moddist(
    replica_counts: tuple[int, ...] = (0, 1, 2, 4),
    package_kbs: tuple[int, ...] = (128, 512),
    n_workers: int = 8,
    iterations: int = 8,
    chunk_bytes: int = 65536,
    seed: int = 0,
    trace: bool = False,
) -> dict[str, Any]:
    """Replica count x package size sweep on a contended repository uplink.

    A farm of two heavyweight units deploys onto ``n_workers`` consumer-
    DSL peers; every worker must download both packages before acking.
    With ``module_replicas=0`` all transfers serialise on the portal's
    32 KB/s uplink (the seed protocol); with replicas the controller
    pre-seeds k workers, which then serve the rest of the fleet while the
    portal answers only head/revalidate traffic.  ``fetch_wait_s`` sums
    every mobility-span duration in the trace — the fleet-wide time spent
    waiting on module distribution, the metric the BENCH gate watches.

    Every configuration runs traced (the metric needs spans; tracing is
    passive so rows are unaffected).  ``trace=True`` additionally returns
    the tracer of the (replicas=2, largest package) run under
    ``"tracer"``.
    """
    from ..core.registry import UnitRegistry
    from ..core.taskgraph import TaskGraph
    from ..core.toolbox.display import Grapher
    from ..core.toolbox.signal import Wave
    from ..core.units import Unit

    rows = []
    tracer = None
    for package_kb in package_kbs:
        for replicas in replica_counts:
            registry = UnitRegistry()
            registry.register(Wave, category="signal")
            registry.register(Grapher, category="output")
            code_size = package_kb * 1024
            for unit_name in ("HeavyA", "HeavyB"):

                def _passthrough(self, inputs):
                    return [inputs[0]]

                registry.register(
                    type(
                        unit_name,
                        (Unit,),
                        {"CODE_SIZE": code_size, "process": _passthrough},
                    ),
                    category="heavy",
                )

            g = TaskGraph(f"moddist-{package_kb}k", registry=registry)
            g.add_task("Src", "Wave", frequency=32.0, samples=256)
            g.add_task("A", "HeavyA")
            g.add_task("B", "HeavyB")
            g.add_task("Sink", "Grapher")
            for a, b in [("Src", "A"), ("A", "B"), ("B", "Sink")]:
                g.connect(a, 0, b, 0)
            g.group_tasks("Farm", ["A", "B"], policy="parallel")

            grid = ConsumerGrid(
                n_workers=n_workers,
                seed=seed,
                registry=registry,
                contention=True,
                trace=True,
                module_replicas=replicas,
                module_chunk_bytes=chunk_bytes,
                cache_fetch_timeout=20_000.0,
            )
            # Consumer-DSL transfers of multi-hundred-KB packages far
            # exceed the default interactive deploy budget.
            grid.controller.deploy_timeout = 20_000.0
            report = grid.run(g, iterations=iterations)
            tr = grid.sim.tracer
            fetch_wait = sum(
                s.end - s.start
                for s in tr.spans
                if s.category == "mobility" and s.end is not None
            )
            caches = [s.cache.stats for s in grid.workers.values()]
            checksum = float(
                sum(
                    float(np.sum(np.abs(out.data)))
                    for outs in report.group_results
                    for out in outs
                )
            )
            rows.append(
                {
                    "replicas": replicas,
                    "package_kb": package_kb,
                    "workers": n_workers,
                    "makespan_s": report.makespan,
                    "deploy_time_s": report.deploy_time,
                    "fetch_wait_s": fetch_wait,
                    "repo_packages": grid.repository.stats.packages_served,
                    "repo_bytes": grid.repository.stats.bytes_served,
                    "repo_heads": grid.repository.stats.head_requests,
                    "repo_chunks": grid.repository.stats.chunks_sent,
                    "peer_fetches": sum(c.peer_fetches for c in caches),
                    "peer_serves": sum(c.peer_serves for c in caches),
                    "revalidations": sum(c.revalidations for c in caches),
                    "result_checksum": checksum,
                }
            )
            if trace and replicas == 2 and package_kb == max(package_kbs):
                tracer = tr
    out: dict[str, Any] = {"rows": rows, "workers": n_workers}
    if tracer is not None:
        out["tracer"] = tracer
    return out
