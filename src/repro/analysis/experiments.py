"""The run table itself: experiments E1–E18 as declarations (DESIGN.md §3).

Each :class:`~repro.analysis.runtable.Experiment` below names its
factors, one cell function, the columns of its table and the paper
claims its rows must support; :mod:`repro.analysis.runtable` loops,
traces, analyses, renders, stores and gates all of them, and ``repro
sweep [NAME ...]`` is the entry point.  The comment above a declaration
is its paper anchor — the reason the code does not show.

Cells are seeded and deterministic.  Which cells carry trace analytics
follows from one rule: a cell that runs the p2p / mobility / service
stack hands the runner's tracer on to it; the eight declarations that
do not say why in one line.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..apps import database as db
from ..apps import inspiral as insp
from ..apps.galaxy import build_galaxy_graph, generate_snapshots
from ..core.engine import LocalEngine
from ..core.registry import UnitRegistry
from ..core.taskgraph import TaskGraph
from ..core.toolbox.display import Grapher
from ..core.toolbox.signal import Wave
from ..core.units import Unit
from ..core.xml_io import graph_from_string, graph_to_string
from ..faults import Fault, FaultPlan, chaos
from ..grid import ConsumerGrid
from ..mobility.cache import ModuleCache
from ..mobility.repository import ModuleRepository
from ..p2p.advertisement import ADV_SERVICE, Advertisement
from ..p2p.discovery import (
    CentralIndexDiscovery,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from ..p2p.network import DSL_PROFILE, LAN_PROFILE, Message, SimNetwork
from ..p2p.peer import Peer
from ..registry import Registry
from ..resources.accounts import (
    CertificateAuthority,
    GlobusAccountManager,
    VirtualAccountManager,
)
from ..resources.availability import AvailabilityModel, PoissonChurn, ScreensaverCycle
from ..service.integrity import canonical_digest
from ..simkernel import Interrupt, Simulator, Store
from ..transport.wire import result_checksum
from .metrics import SECONDS_PER_YEAR, parallel_efficiency, spectrum_snr, speedup
from .runtable import Experiment
from .workloads import HOSTILE_LAN, LAN_GRID, fig1_graph, fig1_grouped, pipeline_graph

__all__ = ["EXPERIMENTS", "e13_grid", "e13_run", "simulate_volunteer_fleet"]

#: name → experiment, in EXPERIMENTS.md order (``repro sweep`` runs them so)
EXPERIMENTS: Registry[Experiment] = Registry("experiment", ValueError)


def _declare(exp: Experiment) -> None:
    EXPERIMENTS.add(exp.name, exp)


# -- shared by several experiments -----------------------------------------------------


@functools.cache
def _galaxy_dataset(key: str, n_frames: int, n_particles: int, seed: int) -> str:
    """Register one seeded snapshot series under ``key``, once per process.

    Every cell of an experiment renders the same series, so it is
    generated on first use and not once per cell under per-cell keys.
    """
    generate_snapshots(n_frames, n_particles, seed=seed, register_as=key)
    return key


def _fft_farm_graph(name: str, samples: int, policy: str = "parallel") -> TaskGraph:
    """Wave → FFT → Grapher with the FFT farmed out under ``policy``."""
    g = TaskGraph(name)
    g.add_task("Wave", "Wave", samples=samples)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy=policy)
    return g


def _farm_speedup(rows: list[dict]) -> None:
    """Speed-up and efficiency of a worker sweep against its first row."""
    t1 = rows[0]["makespan_s"]
    for row in rows:
        row["speedup"] = speedup(t1, row["makespan_s"])
        row["efficiency"] = parallel_efficiency(t1, row["makespan_s"], row["workers"])


def _hostile_farm(tracer, dataset: str, frames: int, plan, **run):
    """The galaxy farm on :data:`HOSTILE_LAN` under a fault plan: the run
    report, and the two columns every such cell compares against the
    trusted cell."""
    grid = ConsumerGrid(HOSTILE_LAN, fault_plan=plan, tracer=tracer)
    report = grid.run(
        build_galaxy_graph(dataset, resolution=16), iterations=frames, **run
    )
    digest = canonical_digest([out[0].pixels for out in report.group_results])
    return report, {"makespan_s": report.makespan, "frames_digest": digest}


def _against_trusted(rows: list[dict]) -> None:
    """Overhead and bit-identity against the first row: the cell with no
    faults and no verification, whose frames are right by construction."""
    trusted = rows[0]
    for row in rows:
        row["overhead_pct"] = 100.0 * (row["makespan_s"] / trusted["makespan_s"] - 1.0)
        row["identical"] = row["frames_digest"] == trusted["frames_digest"]


# -- E1: Fig. 1 + Code Segment 1 -------------------------------------------------------
# Paper anchor: the visual Fig. 1 network and its XML task-graph encoding
# ("the graph itself is a text file that does not consume many
# resources").  We regenerate the workflow through the API, serialise,
# parse, re-execute, and report graph size and the recovered signal.
# No trace: the local engine runs no simulator.


def _e1_cell(tracer) -> dict[str, Any]:
    g = fig1_grouped()
    xml = graph_to_string(g)
    g2 = graph_from_string(xml)
    engine = LocalEngine(g2)
    probe = engine.attach_probe("Accum")
    engine.run(iterations=20)
    spec = probe.last
    return {
        "tasks": len(g.tasks),
        "group_members": len(g.task("GroupTask").graph.tasks),
        "xml_bytes": len(xml.encode()),
        "roundtrip_stable": xml == graph_to_string(g2),
        "peak_hz": float(spec.frequencies()[np.argmax(spec.data)]),
    }


_declare(Experiment(
    name="e1_workflow",
    title="E1  Fig.1 workflow + Code Segment 1 XML round-trip",
    factors={},
    cell=_e1_cell,
    columns={
        "tasks": "tasks",
        "group_members": "units in GroupTask",
        "xml_bytes": "XML bytes",
        "roundtrip_stable": "round-trip stable",
        "peak_hz": "recovered peak (Hz)",
    },
    claims=lambda by: [
        ("serialise -> parse -> serialise is byte-identical",
         by[()]["roundtrip_stable"]),
        ("the re-parsed graph re-executes and recovers the 64 Hz peak exactly",
         by[()]["peak_hz"] == 64.0),
    ],
))


# -- E2: Fig. 2 — spectrum averaging pulls the signal out of noise ---------------------
# Paper anchor: "two outputs, one taken after the first iteration (notice
# that the signal is buried in the noise) and the other after 20
# iterations".  The full SNR(n) series; white-noise averaging should
# approach a √n gain.  ``tallest_peak`` is Fig. 2's visual claim taken
# literally: at n=1 some noise bin is taller than the 64 Hz line.
# No trace: the local engine runs no simulator.


def _e2_cell(tracer, iterations: int) -> dict[str, Any]:
    engine = LocalEngine(fig1_graph())
    probe = engine.attach_probe("Accum")
    engine.run(iterations)
    spec = probe.last
    signal_bin = int(round(64.0 / spec.df))
    return {
        "snr": spectrum_snr(spec, signal_hz=64.0),
        "tallest_peak": int(np.argmax(spec.data[3:])) + 3 == signal_bin,
    }


def _e2_derive(rows: list[dict]) -> None:
    for row in rows:
        row["gain"] = row["snr"] / rows[0]["snr"]
        row["sqrt_n"] = math.sqrt(row["iterations"])


_declare(Experiment(
    name="e2_accumstat",
    title="E2  Fig.2: averaged-spectrum SNR vs iterations",
    factors={"iterations": tuple(range(1, 21))},
    cell=_e2_cell,
    columns={
        "iterations": "iterations",
        "snr": "SNR of 64 Hz line",
        "tallest_peak": "64 Hz is the tallest peak",
        "gain": "gain vs n=1",
        "sqrt_n": "ideal sqrt(n)",
    },
    derive=_e2_derive,
    claims=lambda by: [
        ("averaging 20 spectra lifts the SNR of the 64 Hz line by more than 1.5x",
         by[20]["snr"] > 1.5 * by[1]["snr"]),
        ("the signal is buried at n=1: 64 Hz is not the tallest peak",
         not by[1]["tallest_peak"]),
        ("the signal is dominant by n=20: 64 Hz is the tallest peak",
         by[20]["tallest_peak"]),
    ],
))


# -- E3: Fig. 3/4 — the distributed pipelined linear network ---------------------------
# Paper anchor: "behave as a macroscopic pipeline processor where one
# machine performs one specific task and then pipes data onto another
# machine" and Fig. 4's "simple distributed pipelined linear network".
# Makespan vs pipeline depth against the sequential and ideal-pipeline
# bounds: stages overlap, so gain approaches the stage count.

E3_FRAMES = 16


def _e3_cell(tracer, stages: int) -> dict[str, Any]:
    grid = ConsumerGrid(LAN_GRID, n_workers=stages, tracer=tracer)
    report = grid.run(pipeline_graph(stages), iterations=E3_FRAMES)
    stage_time = float(max(
        w.stats.busy_seconds / max(w.stats.iterations, 1)
        for w in grid.workers.values()
    ))
    sequential = stages * E3_FRAMES * stage_time
    return {
        "makespan_s": report.makespan,
        "sequential_s": sequential,
        "ideal_pipeline_s": (E3_FRAMES + stages - 1) * stage_time,
        "throughput_per_s": E3_FRAMES / report.makespan,
        "pipeline_gain": sequential / report.makespan,
    }


_declare(Experiment(
    name="e3_pipeline",
    title=f"E3  p2p pipeline over peers, {E3_FRAMES} frames",
    factors={"stages": (2, 4, 8)},
    cell=_e3_cell,
    columns={
        "stages": "stages",
        "makespan_s": "makespan (s)",
        "sequential_s": "sequential (s)",
        "ideal_pipeline_s": "ideal pipe (s)",
        "pipeline_gain": "gain",
    },
    claims=lambda by: [
        ("pipelining beats sequential execution at every depth (< 0.75x)",
         all(r["makespan_s"] < 0.75 * r["sequential_s"] for r in by.values())),
        ("makespan tracks the ideal fill bound at every depth (>= 0.9x)",
         all(r["makespan_s"] >= 0.9 * r["ideal_pipeline_s"] for r in by.values())),
    ],
))


# -- E4: Case 1 — galaxy-formation frame farm speedup ----------------------------------
# Paper anchor: "the user can visualise the galaxy formation in a
# fraction of the time than it would if the simulation was performed on
# a single machine" (§3.6.1, demonstrated at the 2002 All Hands
# Meeting).  SPH column-density rendering farmed over 1..8 peers.

E4_FRAMES = 16


def _e4_cell(tracer, workers: int) -> dict[str, Any]:
    key = _galaxy_dataset("e4-gal", E4_FRAMES, 400, 0)
    grid = ConsumerGrid(LAN_GRID, n_workers=workers, tracer=tracer)
    graph = build_galaxy_graph(key, resolution=32, policy="parallel")
    return {"makespan_s": grid.run(graph, iterations=E4_FRAMES).makespan}


_declare(Experiment(
    name="e4_galaxy",
    title=f"E4  galaxy render farm, {E4_FRAMES} frames",
    factors={"workers": (1, 2, 4, 8)},
    cell=_e4_cell,
    columns={
        "workers": "workers",
        "makespan_s": "makespan (s)",
        "speedup": "speedup",
        "efficiency": "efficiency",
    },
    derive=_farm_speedup,
    claims=lambda by: [
        ("4 workers render in under a third of the single-machine time",
         by[4]["speedup"] > 3.0),
        ("8 workers render in under a fifth of the single-machine time",
         by[8]["speedup"] > 5.0),
    ],
))


# -- E5: Case 2 — inspiral real-time sizing under volunteer churn ----------------------
# Paper anchors (§3.6.2): 2,000 S/s → 900 s chunks = 7.2 MB; 5,000–10,000
# templates; "about 5 hours on a 2 GHz PC"; "therefore, 20 PC's would
# need to be employed full-time to keep up"; "Within a Consumer Grid
# scenario the number of PCs would need to be increased due to various
# types of downtime"; "it can lag behind by several hours if necessary".
# The cost model is calibrated so one chunk = 5 h on 2 GHz; the fleet
# simulation then finds the dedicated and consumer break-even points.
# No trace: the fleet model is availability only, no span-emitting layer.


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
    net = SimNetwork(sim)
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


E5_UPTIME_S, E5_DOWNTIME_S = 4 * 3600.0, 2 * 3600.0
E5_AVAILABILITY = E5_UPTIME_S / (E5_UPTIME_S + E5_DOWNTIME_S)
#: the paper's arithmetic: chunk cost / CPU speed / chunk length = PCs to keep up
E5_DEDICATED_PCS = (
    insp.chunk_search_flops(
        int(insp.PAPER_CHUNK_SECONDS * insp.PAPER_SAMPLING_RATE),
        insp.PAPER_TEMPLATES_LOW,
    )
    / insp.PAPER_CPU_FLOPS
    / insp.PAPER_CHUNK_SECONDS
)


def _e5_cell(tracer, fleet: str, peers: int) -> dict[str, Any]:
    churn = None  # dedicated machines: the paper's baseline arithmetic
    if fleet == "consumer":
        churn = lambda pid: PoissonChurn(E5_UPTIME_S, E5_DOWNTIME_S)
    r = simulate_volunteer_fleet(peers, n_chunks=60, availability_factory=churn)
    return {
        **r,
        "mean_lag_h": round(r["mean_lag_s"] / 3600.0, 2),
        "lag_growth": round(r["lag_slope"], 3),
    }


_declare(Experiment(
    name="e5_inspiral",
    title=(
        f"E5  inspiral real-time sizing  (chunk = {insp.PAPER_CHUNK_BYTES/1e6:.1f} MB, "
        f"5000 templates, 5 h/chunk on 2 GHz)\n"
        f"analytic: {E5_DEDICATED_PCS:.0f} dedicated PCs, "
        f"{E5_DEDICATED_PCS / E5_AVAILABILITY:.0f} consumer peers at "
        f"{E5_AVAILABILITY:.0%} availability"
    ),
    factors={"fleet": ("dedicated", "consumer"), "peers": (10, 15, 20, 25, 30, 40)},
    cell=_e5_cell,
    columns={
        "fleet": "fleet",
        "peers": "peers",
        "mean_lag_h": "mean lag (h)",
        "lag_growth": "lag growth",
        "keeps_up": "keeps up",
    },
    claims=lambda by: [
        ("the paper's arithmetic gives exactly 20 dedicated PCs",
         E5_DEDICATED_PCS == 20.0),
        ("20 dedicated PCs keep up", by["dedicated", 20]["keeps_up"]),
        ("15 dedicated PCs do not", not by["dedicated", 15]["keeps_up"]),
        ("20 consumer peers at 2/3 availability do not keep up",
         not by["consumer", 20]["keeps_up"]),
        ("40 consumer peers keep up", by["consumer", 40]["keeps_up"]),
    ],
))


# -- E6: Case 3 — multi-site database pipeline discover/bind/execute -------------------
# Paper anchor (§3.6.3): four services (access/manipulate/visualise/
# verify) on different peers; "Triana system looks on the network to
# discover peers which offer each of these services"; selection "based
# on other options that a given service provides (such as accuracy...)".
# One cell, no factors: the discover → bind → execute sequence, and which
# service at which site each stage was bound to.

_E6_CATALOGUE = "name, kind, mass\n" + "\n".join(
    f"gal{i:03d}, {'spiral' if i % 2 else 'elliptical'}, {9.0 + (i % 40) / 10}"
    for i in range(200)
)


def _e6_cell(tracer) -> dict[str, Any]:
    sim = Simulator(seed=11, tracer=tracer)
    net = SimNetwork(sim)
    disc = CentralIndexDiscovery(query_window=1.0)
    index = Peer("index", net)
    disc.attach(index)
    disc.set_index(index)
    catalogue = db.Database()
    catalogue.load_csv("galaxies", _E6_CATALOGUE)
    sites = []
    for pid, kw in [
        ("site-a", dict(database=catalogue,
                        kinds=("data-access", "data-manipulate"), accuracy=0.5)),
        ("site-b", dict(kinds=("data-manipulate", "data-visualise"), accuracy=0.9)),
        ("site-c", dict(kinds=("data-verify",), accuracy=0.7)),
    ]:
        p = Peer(pid, net)
        disc.attach(p)
        sites.append(db.DatabaseSite(p, disc, **kw))
    user_peer = Peer("user", net)
    disc.attach(user_peer)
    user = db.DatabasePipeline(user_peer, disc)
    sim.run()
    t0 = sim.now
    spec = db.QuerySpec(
        table="galaxies",
        where=(("kind", "==", "spiral"), ("mass", ">", 11.0)),
        manipulate=("topk", "mass", 10),
        x_column="mass",
        y_column="mass",
        expect_min_rows=5,
    )
    envelope = sim.run(until=db.run_pipeline(user, sites, spec))
    return {
        **dict(zip(("access", "manipulate", "visualise", "verify"), envelope["trail"])),
        "rows_returned": len(envelope["table"]),
        "verified": envelope["report"]["ok"],
        "elapsed_s": sim.now - t0,
        "messages": net.stats.sent,
    }


_declare(Experiment(
    name="e6_database",
    title="E6  database pipeline service-bind (chosen by accuracy)",
    factors={},
    cell=_e6_cell,
    columns={
        "access": "access",
        "manipulate": "manipulate",
        "visualise": "visualise",
        "verify": "verify",
        "rows_returned": "rows returned",
        "verified": "verified",
        "elapsed_s": "discover+bind+execute (s)",
        "messages": "messages",
    },
    claims=lambda by: [
        ("the verification service accepts the result", by[()]["verified"]),
        ("the top-10 query returns 10 rows", by[()]["rows_returned"] == 10),
        # Access at the archive, manipulate at the accurate compute site
        # (not the co-located one), verification at the bureau.
        ("stage placement crosses sites, manipulation chosen by accuracy",
         [by[()][k].split("@")[1] for k in ("access", "manipulate", "visualise", "verify")]
         == ["site-a", "site-b", "site-b", "site-c"]),
    ],
))


# -- E7: discovery-protocol scaling: flooding vs rendezvous vs central -----------------
# Paper anchor (§4): "A number of P2P application utilise a 'flooding'
# mechanism to forward messages to maximise reachability.  This severely
# restricts the scalability of such approaches"; Triana uses JXTA
# rendezvous discovery instead, and the paper cites Napster's central
# index as prior art.  The claim made quantitative: messages per query
# vs network size for all three strategies.


def _e7_cell(tracer, peers: int, strategy: str) -> dict[str, Any]:
    sim = Simulator(seed=0, tracer=tracer)
    net = SimNetwork(sim)
    if strategy == "central":
        disc = CentralIndexDiscovery()
    elif strategy == "flooding":
        disc = FloodingDiscovery(ttl=7, query_window=5.0)
    else:
        disc = RendezvousDiscovery()
    nodes = [Peer(f"p{i}", net) for i in range(peers)]
    for p in nodes:
        disc.attach(p)
    net.random_overlay(degree=4)
    if strategy == "central":
        disc.set_index(nodes[0])
    elif strategy == "rendezvous":
        for p in nodes[:4]:
            disc.add_rendezvous(p)
    for p in nodes[1:]:
        disc.publish(
            p,
            Advertisement.make(
                ADV_SERVICE, f"svc-{p.peer_id}", p.peer_id, attrs={"kind": "compute"}
            ),
        )
    sim.run()
    before = net.stats.sent
    t0 = sim.now
    results = sim.run(until=disc.query(nodes[peers // 2], adv_type=ADV_SERVICE))
    latency = sim.now - t0
    sim.run()
    return {
        "messages_per_query": net.stats.sent - before,
        "recall": len(results) / (peers - 1),
        "latency_s": latency,
    }


_declare(Experiment(
    name="e7_discovery",
    title="E7  discovery scaling (one query for all services)",
    factors={"peers": (16, 64, 256), "strategy": ("central", "flooding", "rendezvous")},
    cell=_e7_cell,
    columns={
        "peers": "peers",
        "strategy": "strategy",
        "messages_per_query": "msgs/query",
        "recall": "recall",
        "latency_s": "latency (s)",
    },
    claims=lambda by: [
        ("flooding cost grows with the network (> 10x from 16 to 256 peers)",
         by[256, "flooding"]["messages_per_query"]
         > 10 * by[16, "flooding"]["messages_per_query"]),
        ("rendezvous cost is constant in network size",
         by[256, "rendezvous"]["messages_per_query"]
         == by[16, "rendezvous"]["messages_per_query"]),
        ("a central index answers in 2 messages",
         by[256, "central"]["messages_per_query"] == 2),
        ("every strategy reaches full recall at every size",
         all(r["recall"] == 1.0 for r in by.values())),
    ],
))


# -- E8: code mobility: on-demand download vs sticky caching ---------------------------
# Paper anchor (§3): the on-demand model "overcomes the problem of having
# inconsistent versions of executables (as the executable must be
# requested from the owner whenever an execution is to be undertaken)"
# and suits "resource-constrained device[s]" that "selectively download
# and release executable modules".  The version-consistency / traffic
# trade and LRU behaviour under a Zipf module workload with releases.

E8_MODULES, E8_REQUESTS, E8_RELEASE_EVERY = 60, 300, 50


def _e8_cell(tracer, policy: str, cache_slots: int) -> dict[str, Any]:
    registry = UnitRegistry()
    for i in range(E8_MODULES):
        registry.register(type(f"Mod{i:03d}", (Unit,), {"CODE_SIZE": 20_000}))
    names = registry.names()
    sim = Simulator(seed=0, tracer=tracer)
    net = SimNetwork(sim)
    portal = Peer("portal", net, profile=LAN_PROFILE)
    device = Peer("device", net, profile=LAN_PROFILE)
    repo = ModuleRepository(portal, registry)
    cache = ModuleCache(
        device, "portal", capacity_bytes=cache_slots * 20_000, policy=policy
    )
    rng = np.random.default_rng(0)
    zipf_weights = 1.0 / np.arange(1, E8_MODULES + 1)
    zipf_weights /= zipf_weights.sum()
    stale = 0

    def requests(sim):
        nonlocal stale
        for r in range(E8_REQUESTS):
            name = names[int(rng.choice(E8_MODULES, p=zipf_weights))]
            if r > 0 and r % E8_RELEASE_EVERY == 0:
                victim = names[int(rng.integers(E8_MODULES))]
                repo.publish_new_version(victim, f"1.{r // E8_RELEASE_EVERY}")
            pkg = yield cache.ensure(name)
            if pkg.version != repo.current_version(name):
                stale += 1
                cache.note_stale_use()

    sim.run(until=sim.process(requests(sim)))
    return {
        "requests": E8_REQUESTS,
        "bytes_downloaded": cache.stats.bytes_downloaded,
        "network_messages": net.stats.sent,
        "evictions": cache.stats.evictions,
        "stale_executions": stale,
    }


_declare(Experiment(
    name="e8_mobility",
    title=(
        f"E8  module mobility: {E8_MODULES} modules, "
        f"Zipf requests, releases every {E8_RELEASE_EVERY} requests"
    ),
    factors={"policy": ("on_demand", "sticky"), "cache_slots": (4, 16, 64)},
    cell=_e8_cell,
    columns={
        "policy": "policy",
        "cache_slots": "cache slots",
        "bytes_downloaded": "bytes dl",
        "network_messages": "messages",
        "evictions": "evictions",
        "stale_executions": "stale execs",
    },
    claims=lambda by: [
        # The paper's consistency claim, and the trade its design rejects.
        ("on-demand never executes a stale version, at any cache size",
         all(by["on_demand", slots]["stale_executions"] == 0 for slots in (4, 16, 64))),
        ("a sticky cache does run stale code",
         by["sticky", 64]["stale_executions"] > 0),
        ("sticky is cheaper on the wire than on-demand",
         by["sticky", 64]["bytes_downloaded"] < by["on_demand", 64]["bytes_downloaded"]),
        ("constrained devices evict under pressure",
         by["on_demand", 4]["evictions"] > by["on_demand", 64]["evictions"]),
    ],
))


# -- E9: volunteer harvest + administration contrast -----------------------------------
# Paper anchors: SETI@home's "668852.233 years" of harvested CPU (§3.7) —
# idle-time volunteering scales linearly with fleet size at the idle
# fraction; and §2's administration critique — "If thousands of users
# wanted access to a resource it would be a daunting task indeed for any
# administrator" vs "the creation of a single Globus account" with
# billing.  Two tables, so two experiments.
# No trace in either: availability models and account books, no span-emitting layer.

E9_DAYS, E9_IDLE_FRACTION = 7.0, 0.6


def _e9_harvest_cell(tracer, volunteers: int) -> dict[str, Any]:
    horizon = E9_DAYS * 86_400.0
    sim = Simulator(seed=0)
    net = SimNetwork(sim)
    models = []
    for i in range(volunteers):
        model = ScreensaverCycle(idle_fraction=E9_IDLE_FRACTION)
        model.install(Peer(f"v{i}", net))
        models.append(model)
    sim.run(until=horizon)
    harvested = sum(m.stats.online_seconds for m in models)
    return {
        "days": E9_DAYS,
        "harvested_cpu_years": harvested / SECONDS_PER_YEAR,
        "ceiling_cpu_years": volunteers * horizon / SECONDS_PER_YEAR,
        "harvest_fraction": harvested / (volunteers * horizon),
    }


_declare(Experiment(
    name="e9_volunteer",
    title=f"E9  screensaver-time harvest (idle fraction {E9_IDLE_FRACTION})",
    factors={"volunteers": (100, 500)},
    cell=_e9_harvest_cell,
    columns={
        "volunteers": "volunteers",
        "days": "days",
        "harvested_cpu_years": "cpu-years harvested",
        "ceiling_cpu_years": "ceiling",
        "harvest_fraction": "fraction",
    },
    claims=lambda by: [
        ("the harvest tracks the idle fraction (0.4 < fraction < 0.65)",
         all(0.4 < r["harvest_fraction"] < 0.65 for r in by.values())),
        ("the harvest scales linearly with fleet size (5x the fleet, > 4x the harvest)",
         by[500]["harvested_cpu_years"] / by[100]["harvested_cpu_years"] > 4.0),
    ],
))


def _e9_admin_cell(tracer, users: int) -> dict[str, Any]:
    ca = CertificateAuthority("grid-ca")
    globus = GlobusAccountManager(ca)
    for i in range(users):
        globus.create_account(f"user-{i}")
        ca.issue(f"user-{i}", now=0.0)
    virtual = VirtualAccountManager("consumer-pc")
    for i in range(users):
        virtual.charge(f"user-{i}", 100.0)
    return {
        "globus_admin_operations": globus.admin_operations,
        "globus_certificates": ca.issued,
        "virtual_admin_operations": virtual.admin_operations,
        "virtual_billing_lines": len(virtual.billing),
    }


_declare(Experiment(
    name="e9_admin",
    title=(
        "E9b  administration contrast "
        "(Globus per-user accounts vs Triana virtual account)"
    ),
    factors={"users": (500,)},
    cell=_e9_admin_cell,
    columns={
        "users": "users",
        "globus_admin_operations": "Globus admin operations",
        "globus_certificates": "CA certificates issued",
        "virtual_admin_operations": "virtual-account admin operations",
        "virtual_billing_lines": "virtual-account billing lines",
    },
    claims=lambda by: [
        ("Globus needs one admin operation per user",
         all(r["globus_admin_operations"] == users for users, r in by.items())),
        ("the virtual account needs one admin operation in total",
         all(r["virtual_admin_operations"] == 1 for r in by.values())),
    ],
))


# -- E10 (ablation): distribution policy and granularity choices -----------------------
# Paper anchor (§3.3): the two shipped policies ("Parallel is a farming
# out mechanism ... Peer to Peer means distributing the group
# vertically") and the grouping design decision ("the user has the
# complete control of choosing the desired level of granularity").  The
# same workload under both paper policies plus the batching ``chunked``
# farm, and a sweep of the group width.  Two tables, so two experiments.

E10_FRAMES = 16


def _e10_policy_cell(tracer, policy: str) -> dict[str, Any]:
    graph = pipeline_graph(4)
    graph.task("Chain").policy = policy
    grid = ConsumerGrid(LAN_GRID, n_workers=4, tracer=tracer)
    report = grid.run(graph, iterations=E10_FRAMES)
    return {
        "stages": 4,
        "makespan_s": report.makespan,
        "throughput_per_s": E10_FRAMES / report.makespan,
    }


_declare(Experiment(
    name="e10_policies",
    title="E10a  parallel vs p2p vs chunked policy on a 4-stage group",
    factors={"policy": ("parallel", "p2p", "chunked")},
    cell=_e10_policy_cell,
    columns={
        "policy": "policy",
        "stages": "stages",
        "makespan_s": "makespan (s)",
        "throughput_per_s": "throughput (1/s)",
    },
    claims=lambda by: [
        ("all three policies complete the run",
         all(r["makespan_s"] > 0 for r in by.values())),
        # Every farmed iteration runs all stages on one peer (no
        # inter-stage hops) while the chain pays pipeline fill.
        ("farming the whole group beats chaining it on this workload",
         by["parallel"]["makespan_s"] < by["p2p"]["makespan_s"]),
    ],
))


def _e10_granularity_cell(tracer, group_width: int) -> dict[str, Any]:
    graph = pipeline_graph(group_width)
    graph.task("Chain").policy = "parallel"
    grid = ConsumerGrid(LAN_GRID, n_workers=4, tracer=tracer)
    report = grid.run(graph, iterations=E10_FRAMES)
    return {
        "makespan_s": report.makespan,
        "bytes_sent": grid.transport.stats.bytes_sent,
    }


_declare(Experiment(
    name="e10_granularity",
    title="E10b  granularity sweep (parallel farm of width-k groups)",
    factors={"group_width": (1, 2, 4)},
    cell=_e10_granularity_cell,
    columns={
        "group_width": "group width",
        "makespan_s": "makespan (s)",
        "bytes_sent": "bytes on the wire",
    },
    claims=lambda by: [
        ("group width moves wire volume, within the same order of magnitude",
         by[1]["bytes_sent"] < 2 * by[4]["bytes_sent"]),
        ("makespan scales with per-group work",
         by[1]["makespan_s"] < by[2]["makespan_s"] < by[4]["makespan_s"]),
    ],
))


# -- E11 (ablation): consumer DSL links vs LAN: where farming stops paying -------------
# Paper anchor: the Consumer Grid explicitly targets "resources such as
# DSL/Cable" (§1) rather than institutional LANs, and the galaxy demo ran
# "using machines on a local network".  With link *contention* modelled
# (sends queue on each node's uplink), the controller's DSL uplink
# serialises frame distribution, so farm speedup saturates while the LAN
# curve stays near-linear — the quantitative reason the paper's demo used
# a LAN, and the regime any real Consumer Grid deployment must respect.

E11_FRAMES, E11_PARTICLES = 16, 3000  # ~120 kB per frame on the wire
_LINKS = {"LAN": LAN_PROFILE, "DSL": DSL_PROFILE}


def _e11_cell(tracer, link: str, workers: int) -> dict[str, Any]:
    key = _galaxy_dataset("e11-gal", E11_FRAMES, E11_PARTICLES, 0)
    grid = ConsumerGrid(
        n_workers=workers,
        worker_profile=_LINKS[link],
        controller_profile=_LINKS[link],
        worker_efficiency=1e-4,
        contention=True,
        tracer=tracer,
    )
    graph = build_galaxy_graph(key, resolution=32, policy="parallel")
    return {"makespan_s": grid.run(graph, iterations=E11_FRAMES).makespan}


def _e11_derive(rows: list[dict]) -> None:
    for link in _LINKS:
        _farm_speedup([row for row in rows if row["link"] == link])


_declare(Experiment(
    name="e11_network",
    title=(
        f"E11  farm speedup with link contention, {E11_FRAMES} frames "
        f"of {E11_PARTICLES} particles: LAN vs consumer DSL"
    ),
    factors={"link": tuple(_LINKS), "workers": (1, 2, 4, 8)},
    cell=_e11_cell,
    columns={
        "link": "link",
        "workers": "workers",
        "makespan_s": "makespan (s)",
        "speedup": "speedup",
    },
    derive=_e11_derive,
    claims=lambda by: [
        ("the LAN farm scales near-linearly (8 workers: > 6x)",
         by["LAN", 8]["speedup"] > 6.0),
        ("the DSL farm saturates against the controller uplink (< 0.75x the LAN speedup)",
         by["DSL", 8]["speedup"] < 0.75 * by["LAN", 8]["speedup"]),
    ],
))


# -- E12 (ablation): checkpointed migration vs restart-on-churn ------------------------
# Paper anchor (§3.6.2): "A check-pointing mechanism may also be employed
# to migrate computation if necessary."  What checkpointing buys: the
# same churned volunteer fleet processes the inspiral stream with work
# either resumed from its interruption point or restarted from scratch.
# No trace: the fleet model is availability only, no span-emitting layer.

E12_PEERS = 34


def _e12_cell(tracer, mode: str) -> dict[str, Any]:
    r = simulate_volunteer_fleet(
        E12_PEERS,
        n_chunks=24,
        availability_factory=lambda pid: PoissonChurn(2 * 3600.0, 1 * 3600.0),
        checkpointing=mode == "checkpoint+migrate",
    )
    return {
        "peers": E12_PEERS,
        "chunks_done": r["chunks_done"],
        "mean_lag_h": r["mean_lag_s"] / 3600.0,
        "max_lag_h": r["max_lag_s"] / 3600.0,
        "restarts": r["restarts"],
    }


_declare(Experiment(
    name="e12_checkpoint",
    title="E12  churned inspiral fleet: resume-from-checkpoint vs restart-from-scratch",
    factors={"mode": ("checkpoint+migrate", "restart")},
    cell=_e12_cell,
    columns={
        "mode": "mode",
        "peers": "peers",
        "chunks_done": "chunks done",
        "mean_lag_h": "mean lag (h)",
        "max_lag_h": "max lag (h)",
        "restarts": "restarts",
    },
    claims=lambda by: [
        ("resuming from a checkpoint never restarts a chunk",
         by["checkpoint+migrate"]["restarts"] == 0),
        ("without checkpoints, churn forces restarts", by["restart"]["restarts"] > 0),
        ("checkpointing does not lag behind restarting",
         by["checkpoint+migrate"]["mean_lag_h"] <= by["restart"]["mean_lag_h"]),
    ],
))


# -- E13 (ablation): placement-aware dispatch, and message granularity -----------------
# Paper anchor (abstract): Triana "can support the user in making
# placement decisions for their modules"; §4: discovery by "CPU
# capability".  Real consumer fleets are heterogeneous — blind
# round-robin against capability-weighted dispatch on a fleet that mixes
# 4 GHz and 1 GHz volunteers.
#
# The second experiment exercises message granularity on the paper's own
# DSL profile: with a contended 32 kB/s controller uplink and tiny
# per-frame payloads, the per-message envelope dominates the wire, so the
# ``chunked`` policy (k iterations per message) beats the one-message-
# per-iteration ``parallel`` farm on makespan with identical dealing.

E13_FRAMES = 24


def e13_grid(tracer=None) -> ConsumerGrid:
    """E13's heterogeneous fleet: 2× 4 GHz + 2× 1 GHz volunteers on a LAN."""
    def cpu(flops):
        return dataclasses.replace(LAN_PROFILE, cpu_flops=flops)

    grid = ConsumerGrid(
        LAN_GRID, n_workers=2, seed=302, worker_profile=cpu(4e9), tracer=tracer
    )
    for i in range(2):
        grid.add_worker(f"slow-{i}", profile=cpu(1e9))
    grid.sim.run()
    return grid


def e13_run(grid: ConsumerGrid, dispatch: str):
    """E13's farm on ``grid``; the passivity test runs it bare and telemetered."""
    graph = _fft_farm_graph("farm", samples=8192)
    return grid.run(graph, iterations=E13_FRAMES, dispatch=dispatch)


def _e13_dispatch_cell(tracer, dispatch: str) -> dict[str, Any]:
    grid = e13_grid(tracer)
    report = e13_run(grid, dispatch)
    loads = {w: svc.stats.iterations for w, svc in grid.workers.items()}
    return {
        "makespan_s": report.makespan,
        "fast_load": sum(v for k, v in loads.items() if k.startswith("worker")),
        "slow_load": sum(v for k, v in loads.items() if k.startswith("slow")),
    }


_declare(Experiment(
    name="e13_dispatch",
    title=(
        "E13  heterogeneous farm (2× 4 GHz + 2× 1 GHz volunteers, "
        f"{E13_FRAMES} frames)"
    ),
    factors={"dispatch": ("round_robin", "weighted")},
    cell=_e13_dispatch_cell,
    columns={
        "dispatch": "dispatch",
        "makespan_s": "makespan (s)",
        "fast_load": "iters on 4 GHz pair",
        "slow_load": "iters on 1 GHz pair",
    },
    claims=lambda by: [
        ("capability-weighted dispatch beats round-robin (< 0.8x the makespan)",
         by["weighted"]["makespan_s"] < 0.8 * by["round_robin"]["makespan_s"]),
        ("weighted dispatch loads the fast pair more than the slow pair",
         by["weighted"]["fast_load"] > by["weighted"]["slow_load"]),
    ],
))

E13B_FRAMES = 192


def _e13_chunking_cell(tracer, policy: str) -> dict[str, Any]:
    # Round-robin dealing on the same 4-worker DSL fleet either way, so the
    # only difference is message granularity: 64 B of envelope per
    # message amortised over k=8 iterations.
    grid = ConsumerGrid(n_workers=4, seed=401, contention=True, tracer=tracer)
    report = grid.run(
        _fft_farm_graph("tiny-farm", samples=8, policy=policy), iterations=E13B_FRAMES
    )
    kinds = grid.transport.stats.by_kind
    return {
        "makespan_s": report.makespan,
        "exec_messages": kinds.get("group-exec", 0),
        "bytes_sent": grid.transport.stats.bytes_sent,
    }


_declare(Experiment(
    name="e13_chunking",
    title=(
        "E13b  message granularity on a contended DSL uplink "
        f"(4 volunteers, {E13B_FRAMES} frames, round-robin dealing)"
    ),
    factors={"policy": ("parallel", "chunked")},
    cell=_e13_chunking_cell,
    columns={
        "policy": "policy",
        "makespan_s": "makespan (s)",
        "exec_messages": "exec msgs",
        "bytes_sent": "bytes on the wire",
    },
    claims=lambda by: [
        # Same dealing, fewer envelopes.
        ("batching wins on the contended DSL uplink (< 0.95x the makespan)",
         by["chunked"]["makespan_s"] < 0.95 * by["parallel"]["makespan_s"]),
        ("batching ships fewer bytes",
         by["chunked"]["bytes_sent"] < by["parallel"]["bytes_sent"]),
        ("the parallel farm sends one exec message per frame",
         by["parallel"]["exec_messages"] == E13B_FRAMES),
        ("the chunked farm ships the same frames in an eighth of the messages",
         by["chunked"]["exec_messages"] == E13B_FRAMES // 8),
    ],
))


# -- E14 (ablation): which axis to split the inspiral search on ------------------------
# Paper anchor (§3.6.2): "since it is a massively parallel problem we
# believe it can be solved ... by simply distributing the code to as many
# computers that are available" — the paper farms whole *chunks*.  The
# alternative is to split the *template bank*: every worker receives
# every chunk but correlates only 1/k of the templates.  Analytic, at
# paper scale.  The factor is k, the number of workers each chunk is
# shipped to: 1 is the paper's chunk farm, 20 the template split.  The
# trade: per-chunk latency (better for the template split) vs total wire
# volume (k× worse) against a consumer uplink.
# No trace: arithmetic only.

E14_UPLINK_BPS = 256e3 / 8


def _e14_cell(tracer, bank_split: int) -> dict[str, Any]:
    n_samples = int(insp.PAPER_CHUNK_SECONDS * insp.PAPER_SAMPLING_RATE)
    compute_one = (
        insp.chunk_search_flops(n_samples, insp.PAPER_TEMPLATES_LOW)
        / insp.PAPER_CPU_FLOPS
    )
    # The data source's uplink serialises the k copies of the chunk.
    transfer = bank_split * insp.PAPER_CHUNK_BYTES / E14_UPLINK_BPS
    return {
        "axis": ("chunk-parallel (paper)" if bank_split == 1
                 else f"template-parallel (k={bank_split})"),
        "transfers_per_chunk_mb": bank_split * insp.PAPER_CHUNK_BYTES / 1e6,
        "per_chunk_latency_h": (transfer + compute_one / bank_split) / 3600.0,
        "steady_state_workers_needed": compute_one / insp.PAPER_CHUNK_SECONDS,
        "uplink_share_per_chunk": transfer / insp.PAPER_CHUNK_SECONDS,
    }


_declare(Experiment(
    name="e14_split",
    title=(
        "E14  splitting axis at paper scale (7.2 MB chunks, 5000 "
        "templates, 256 kbit/s source uplink)"
    ),
    factors={"bank_split": (1, 20)},
    cell=_e14_cell,
    columns={
        "axis": "axis",
        "transfers_per_chunk_mb": "MB shipped per chunk",
        "per_chunk_latency_h": "per-chunk latency (h)",
        "steady_state_workers_needed": "workers needed",
        "uplink_share_per_chunk": "source-uplink share",
    },
    claims=lambda by: [
        ("the steady-state compute need is 20 workers either way",
         by[1]["steady_state_workers_needed"] == 20.0
         == by[20]["steady_state_workers_needed"]),
        ("splitting the bank 20 ways ships 20x the bytes",
         by[20]["transfers_per_chunk_mb"] == 20 * by[1]["transfers_per_chunk_mb"]),
        ("chunk farming fits the source uplink (share < 1)",
         by[1]["uplink_share_per_chunk"] < 1.0),
        ("the template split over-subscribes it (share > 1)",
         by[20]["uplink_share_per_chunk"] > 1.0),
        ("the only thing the template split buys is per-chunk latency",
         by[20]["per_chunk_latency_h"] < by[1]["per_chunk_latency_h"]),
    ],
))


# -- E15 (robustness): recovery overhead under churn vs a fault-free run ---------------
# Paper anchor: the Consumer Grid's peers "may disconnect at any time"
# (§1), yet the paper never quantifies what surviving that costs.  The
# galaxy-formation farm runs through the chaos layer at each preset
# intensity: makespan overhead vs the fault-free baseline, redispatches,
# suspicions and heartbeat traffic.  Results must stay *bit-identical* at
# every level — robustness that changes answers is not robustness.

E15_FRAMES = 12


def _e15_cell(tracer, level: str) -> dict[str, Any]:
    key = _galaxy_dataset("e15-gal", E15_FRAMES, 300, 3)
    workers = [f"worker-{i}" for i in range(HOSTILE_LAN.n_workers)]
    plan = (None if level == "none" else
            chaos(level, seed=5, workers=workers, start=5.0, horizon=40.0))
    report, columns = _hostile_farm(tracer, key, E15_FRAMES, plan, run_until=100_000)
    return {
        **columns,
        "redispatches": report.recovery["redispatches"],
        "suspected": len(report.recovery["suspected"]),
        "heartbeats": report.recovery["heartbeats"],
    }


_declare(Experiment(
    name="e15_recovery",
    title=(
        f"E15  recovery overhead under chaos, galaxy farm "
        f"({E15_FRAMES} frames, {HOSTILE_LAN.n_workers} workers): "
        "results stay identical at every level"
    ),
    factors={"level": ("none", "mild", "moderate", "heavy")},
    cell=_e15_cell,
    columns={
        "level": "chaos level",
        "makespan_s": "makespan (s)",
        "overhead_pct": "overhead (%)",
        "redispatches": "redispatches",
        "suspected": "suspected",
        "heartbeats": "heartbeats",
        "identical": "identical",
    },
    derive=_against_trusted,
    claims=lambda by: [
        ("frames stay bit-identical at every chaos level",
         all(r["identical"] for r in by.values())),
        # Heavy isn't always slower than moderate: plans are independent
        # seeded draws.
        ("recovery costs time once the storm is real (moderate and heavy: > 10 %)",
         by["moderate"]["overhead_pct"] > 10.0 and by["heavy"]["overhead_pct"] > 10.0),
        ("the failure detector did the work under real churn",
         by["moderate"]["suspected"] >= 1 and by["moderate"]["redispatches"] >= 1),
    ],
))


# -- E16 (scale): volunteer-swarm heartbeat gossip at 10^4-10^5 peers ------------------
# Paper anchor: the Consumer Grid only pays off at volunteer-swarm scale —
# the CERN peer-group study (Jan et al., PAPERS.md) argues for the
# 10^5-10^6-peer regime, and every ROADMAP scale-out item multiplies
# event volume through the simkernel hot path.
#
# The scenario is intentionally *kernel-shaped* rather than app-shaped:
# every peer sends one heartbeat to its ring successor each round, with
# peers staggered across a fixed number of cohort offsets — so 10^4-10^5
# messages in flight land on a few shared instants.  Jitter is disabled
# so delivery times quantize onto those instants and the run draws no
# RNG streams.  Each instant's arrivals are one kernel event
# (``SimNetwork`` bursts, see ``docs/performance.md``), so the event
# count is one per cohort and one per instant, whatever the swarm size.
# No trace, the scale exception: a 10^5-peer trace would dwarf the
# workload.  Messages per wall second is gridbench ``sim_swarm`` ops_per_s.

E16_ROUNDS = 5
E16_COHORTS = 16  # distinct heartbeat offsets per round
E16_PERIOD_S, E16_STAGGER_S = 30.0, 0.25


def _e16_cell(tracer, n_peers: int) -> dict[str, Any]:
    sim = Simulator(seed=0)
    net = SimNetwork(sim)
    delivered = [0]

    def handler(msg):
        delivered[0] += 1

    ids = [f"p{i:06d}" for i in range(n_peers)]
    for pid in ids:
        net.add_node(pid, handler)
    send = net.send

    def make_cohort(offset: int):
        def fire() -> None:
            for i in range(offset, n_peers, E16_COHORTS):
                send(Message(kind="hb", src=ids[i], dst=ids[(i + 1) % n_peers]))

        return fire

    for r in range(E16_ROUNDS):
        for g in range(E16_COHORTS):
            sim.call_at(r * E16_PERIOD_S + g * E16_STAGGER_S, make_cohort(g))
    sim.run()
    return {
        "rounds": E16_ROUNDS,
        "sent": net.stats.sent,
        "delivered": delivered[0],
        "events": sim.events_executed,
        "makespan_s": sim.now,
    }


_declare(Experiment(
    name="e16_swarm",
    title=(
        "E16  volunteer-swarm heartbeat gossip: "
        f"{E16_ROUNDS} rounds, {E16_COHORTS} staggered cohorts per round"
    ),
    factors={"n_peers": (10_000, 100_000)},
    cell=_e16_cell,
    columns={
        "n_peers": "peers",
        "rounds": "rounds",
        "sent": "sent",
        "delivered": "delivered",
        "events": "events",
        "makespan_s": "makespan (s)",
    },
    claims=lambda by: [
        # All peers online, no loss configured.
        ("every heartbeat is delivered at both scales",
         all(r["delivered"] == r["sent"] == n * E16_ROUNDS for n, r in by.items())),
        # Timing depends only on the (shared) link model, not on swarm size.
        ("the modelled horizon is the same regardless of scale",
         by[100_000]["makespan_s"] == by[10_000]["makespan_s"]),
        # Same-instant arrivals share one event however many they are.
        ("kernel events do not grow with the swarm",
         by[100_000]["events"] == by[10_000]["events"]),
    ],
))


# -- E17 (integrity): the price of not trusting volunteers -----------------------------
# Paper anchor: the Consumer Grid farms work onto anonymous consumer
# machines (§1, §3.1) and simply *trusts* whatever comes back.  What that
# trust costs when it is misplaced: the galaxy farm runs against fleets
# with 0/1/2 saboteurs (consistent liars tampering with 90% of their
# results) under no verification, pair voting (``replicate-2``) and
# triple voting (``replicate-3``).  Two headline numbers per cell: whether
# the rendered frames stayed bit-identical to the trusted fault-free
# baseline, and the makespan overhead of achieving that.

E17_FRAMES = 10
E17_TAMPER_RATE = 0.9


def _e17_cell(tracer, saboteurs: int, verification: str) -> dict[str, Any]:
    key = _galaxy_dataset("e17-gal", E17_FRAMES, 200, 3)
    plan = None
    if saboteurs:
        plan = FaultPlan(name=f"saboteurs-{saboteurs}")
        for i in range(saboteurs):
            plan.add(Fault(
                kind="saboteur", at=5.0, duration=100_000.0,
                targets=(f"worker-{i}",), fraction=E17_TAMPER_RATE, seed=17 + i,
            ))
    report, columns = _hostile_farm(
        tracer, key, E17_FRAMES, plan, run_until=200_000, verification=verification
    )
    integ = report.integrity
    return {
        **columns,
        "replicas": integ.get("replicas_issued", 0),
        "tie_breaks": integ.get("tie_breaks", 0),
        "overturned": integ.get("overturned", 0),
        "convicted": len(integ.get("convicted", {})),
    }


_declare(Experiment(
    name="e17_integrity",
    title=(
        f"E17  result integrity, galaxy farm ({E17_FRAMES} frames, "
        f"{HOSTILE_LAN.n_workers} workers, tamper rate {E17_TAMPER_RATE:g}): "
        "unverified runs corrupt, voted runs stay exact"
    ),
    factors={
        "saboteurs": (0, 1, 2),
        "verification": ("none", "replicate-2", "replicate-3"),
    },
    cell=_e17_cell,
    columns={
        "saboteurs": "saboteurs",
        "verification": "verification",
        "makespan_s": "makespan (s)",
        "overhead_pct": "overhead (%)",
        "identical": "identical",
        "replicas": "replicas",
        "tie_breaks": "tie-breaks",
        "overturned": "overturned",
        "convicted": "convicted",
    },
    derive=_against_trusted,
    claims=lambda by: [
        ("trust is free while every peer is honest", by[0, "none"]["identical"]),
        ("an unverified run corrupts as soon as one saboteur joins",
         not by[1, "none"]["identical"] and not by[2, "none"]["identical"]),
        ("voting restores exactness at every saboteur count, for k = 2 and 3",
         all(by[n, v]["identical"]
             for n in (0, 1, 2) for v in ("replicate-2", "replicate-3"))),
        ("the defence was exercised: saboteurs lost votes and were convicted",
         by[2, "replicate-3"]["overturned"] > 0
         and by[2, "replicate-3"]["convicted"] >= 1),
        ("a clean fleet never needs a tie-break",
         by[0, "replicate-3"]["tie_breaks"] == 0),
    ],
))


# -- E18: module distribution: one path, the portal picks each source -----------------
# A farm of two heavyweight units deploys onto 8 consumer-DSL peers and
# every worker must download both packages before acking.  Every fetch
# asks the portal's repository; where links serialise it sends each one
# to the source with the earliest modelled finish — itself, or a worker
# it has already shipped (or is shipping) that digest to — so the fleet
# drains through peer uplinks instead of queueing on the portal's.  On
# an uncontended fabric no uplink has a backlog and the portal serves
# every package: those cells are the seed protocol.  Each worker fetches
# each unit once.  ``fetch_wait_s`` — the fleet-wide time spent waiting
# on module distribution — is read off the tracer itself (every mobility
# span's duration, summed), so it is the one column a null tracer
# leaves at 0.

E18_WORKERS = 8
#: makespans (s) of the lead-wave protocol this path replaced, at its best
#: replica count (k = 2), per package size in KB
E18_LEAD_WAVE_BEST = {128: 43.85, 512: 166.79}


def _e18_cell(tracer, package_kb: int, contention: bool) -> dict[str, Any]:
    registry = UnitRegistry()
    registry.register(Wave, category="signal")
    registry.register(Grapher, category="output")
    for unit_name in ("HeavyA", "HeavyB"):
        registry.register(
            type(unit_name, (Unit,), {
                "CODE_SIZE": package_kb * 1024,
                "process": lambda self, inputs: [inputs[0]],
            }),
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
        n_workers=E18_WORKERS,
        registry=registry,
        contention=contention,
        module_chunk_bytes=65536,
        cache_fetch_timeout=20_000.0,
        tracer=tracer,
    )
    # Consumer-DSL transfers of multi-hundred-KB packages far exceed the
    # default interactive deploy budget.
    grid.controller.deployer.deploy_timeout = 20_000.0
    report = grid.run(g, iterations=8)
    fetch_wait = sum(
        s.end - s.start
        for s in tracer.spans
        if s.category == "mobility" and s.end is not None
    )
    caches = [s.cache.stats for s in grid.workers.values()]
    repo = grid.repository.stats
    return {
        "workers": E18_WORKERS,
        "makespan_s": report.makespan,
        "makespan_2dp": round(report.makespan, 2),
        "deploy_time_s": report.deploy_time,
        "fetch_wait_s": fetch_wait,
        "fetch_wait_2dp": round(fetch_wait, 2),
        "repo_packages": repo.packages_served,
        "repo_bytes": repo.bytes_served,
        "repo_forwards": repo.forwards,
        "repo_chunks": repo.chunks_sent,
        "peer_fetches": sum(c.peer_fetches for c in caches),
        "peer_serves": sum(c.peer_serves for c in caches),
        "result_checksum": result_checksum(report.group_results),
    }


def _e18_claims(by: dict) -> list[tuple[str, bool]]:
    sizes = (128, 512)
    fetches = 2 * E18_WORKERS  # each worker fetches each unit once
    return [
        ("peer transfer never changes what the application computes",
         all(by[kb, True]["result_checksum"] == by[kb, False]["result_checksum"]
             for kb in sizes)),
        ("uncontended, the portal serves every package: the seed protocol",
         all(by[kb, False]["repo_packages"] == fetches
             and by[kb, False]["peer_fetches"] == 0 for kb in sizes)),
        ("contended, every fetch is served once, by the portal or a peer",
         all(by[kb, True]["repo_packages"] + by[kb, True]["peer_fetches"]
             == fetches for kb in sizes)),
        ("contended, the portal stops being the only byte source",
         all(by[kb, True]["repo_bytes"] < by[kb, False]["repo_bytes"]
             and by[kb, True]["peer_fetches"] > 0 for kb in sizes)),
        ("contended, the deploy beats the lead wave's best replica count",
         all(by[kb, True]["makespan_s"] <= E18_LEAD_WAVE_BEST[kb]
             for kb in sizes)),
    ]


_declare(Experiment(
    name="e18_moddist",
    title=(
        f"E18  module distribution: {E18_WORKERS}-worker farm, "
        "DSL links, 64 KB chunks"
    ),
    factors={"package_kb": (128, 512), "contention": (False, True)},
    cell=_e18_cell,
    columns={
        "package_kb": "pkg KB",
        "contention": "contention",
        "fetch_wait_2dp": "fetch wait s",
        "makespan_2dp": "makespan s",
        "repo_packages": "repo pkgs",
        "peer_fetches": "peer fetches",
        "repo_forwards": "forwards",
        "repo_chunks": "chunks",
    },
    claims=_e18_claims,
))
