"""The six workloads.

Every workload is a closed-loop batch: the load generator (this single
process, the controller side) deals a fixed number of ops and the timed
phase ends when all have settled.  A workload object knows how to

* ``setup(seed)``   — generate its inputs from the seed and assemble a
  fresh grid/swarm (this is what ``setup_s`` times);
* ``segments(state)`` — run the timed phase as a generator that yields
  between separately clocked segments (``timed(state)`` runs it whole);
* ``teardown(state)`` — release sockets and child processes;
* ``reference(seed)`` — the oracle, computed once per run, untimed;
* ``check(raw, ref)`` — per-op failure accounting against the oracle.

The program under test only ever sees the generated graphs, data and
fault plans — never the seed's meaning or the workload's name.
"""

from __future__ import annotations

import hashlib
import socket
import subprocess
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro import ConsumerGrid, chaos
from repro.analysis.workloads import pipeline_graph
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.apps.inspiral import build_inspiral_graph
from repro.core.engine import LocalEngine
from repro.core.taskgraph import TaskGraph
from repro.deployment import ControllerNode, launch_worker
from repro.p2p import SimNetwork
from repro.p2p.advertisement import ADV_SERVICE, Advertisement
from repro.p2p.discovery import RendezvousDiscovery
from repro.p2p.network import LAN_PROFILE
from repro.p2p.peer import Peer
from repro.simkernel import Simulator
from repro.transport.wire import result_checksum

from .timeout import RepTimeout, alarm_deferred, close_within

__all__ = [
    "Outcome", "Workload", "SwarmWorkload", "GridWorkload",
    "TcpWorkload", "WORKLOADS", "make_workload", "group_oracle", "free_ports",
]


@dataclass
class Outcome:
    """What one timed phase produced, after checking."""

    ops_attempted: int
    ops_failed: int
    #: digest of everything the oracle compared; equal across reps of a
    #: deterministic workload
    checksum: str
    #: simulated seconds (sim workloads) or None
    sim_makespan_s: Optional[float]
    #: exact work counters readable from public stats
    counters: dict[str, int] = field(default_factory=dict)
    #: deployment id -> worker, for the tcp/sim twin comparison
    placements: dict[str, str] = field(default_factory=dict)


class Workload:
    """Common shape; see the module docstring for the protocol."""

    name = ""
    why = ""
    #: "sim" workloads are deterministic: every rep must agree exactly
    kind = "sim"
    #: hard wall-clock limit of one rep (set-up + timed + teardown); a run
    #: gives up after the warm-up and two reps wedged, inside the 180 s a
    #: run may take
    rep_limit_s = 40.0

    def __init__(self, quick: bool = False):
        self.quick = quick

    def reference(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def segments(self, state: Any):
        """The timed phase as a generator: each ``yield`` ends one
        separately clocked segment, the return value is the raw result.

        Segments exist for calibration — the harness measures the box's
        speed between them — so a phase that takes longer than a few
        hundred milliseconds should yield at its natural seams.  The
        default is one segment: :meth:`timed`.  Override one of the two.
        """
        return self.timed(state)
        yield  # pragma: no cover - makes this a generator

    def timed(self, state: Any) -> Any:
        """The whole timed phase in one call."""
        gen = self.segments(state)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def teardown(self, state: Any, graceful: bool = True) -> None:
        """Release what ``setup`` acquired.  ``graceful=False`` after a
        failed or timed-out rep: do not talk to anything, just let go."""

    def check(self, state: Any, raw: Any, ref: Any) -> Outcome:
        raise NotImplementedError

    def traced_twin(self) -> "Workload":
        """The workload the traced run executes (itself, for sim)."""
        return self

    def worker_pids(self, state: Any) -> list[int]:
        """Live child processes whose CPU time belongs to the timed phase."""
        return []


# ---------------------------------------------------------------------------
# sim_swarm — kernel + p2p, no service layer at all
# ---------------------------------------------------------------------------


@dataclass
class _Swarm:
    sim: Simulator
    net: SimNetwork
    disc: RendezvousDiscovery
    peers: list
    succ: list
    queries: list
    received: list
    events0: int = 0
    sent0: int = 0
    bytes0: int = 0
    delivered0: int = 0


class SwarmWorkload(Workload):
    name = "sim_swarm"
    why = ("10k peers on one SimNetwork: adverts, heartbeat cohorts and "
           "rendezvous queries; simkernel and p2p do all the work, service/"
           "core/apps/transport none")
    COHORTS = 16
    RENDEZVOUS = 8
    PERIOD_S = 30.0
    STAGGER_S = 0.25

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.n_peers, self.rounds, self.n_queries = (
            (400, 2, 10) if quick else (10_000, 3, 40)
        )

    def _draws(self, seed: int):
        rng = np.random.default_rng([seed, self.n_peers])
        succ = rng.permutation(self.n_peers)
        # Edge peers ask; rendezvous peers would take a different
        # message path and make the op count depend on the draw.
        askers = rng.integers(self.RENDEZVOUS, self.n_peers, size=self.n_queries)
        wanted = rng.integers(0, self.n_peers, size=self.n_queries)
        return succ, list(zip(askers.tolist(), wanted.tolist()))

    @staticmethod
    def _pid(i: int) -> str:
        return f"p{i:06d}"

    def reference(self, seed: int):
        _succ, queries = self._draws(seed)
        # Every peer is the successor of exactly one peer, so it must
        # hear `rounds` heartbeats; every query has exactly one answer.
        return {
            "heartbeats": [self.rounds] * self.n_peers,
            "answers": [[self._pid(w)] for _a, w in queries],
        }

    def setup(self, seed: int) -> _Swarm:
        succ, queries = self._draws(seed)
        sim = Simulator(seed=seed)
        net = SimNetwork(sim, jitter_fraction=0.0)
        disc = RendezvousDiscovery(query_window=2.0)
        received = [0] * self.n_peers
        peers = []
        for i in range(self.n_peers):
            peer = Peer(self._pid(i), net)
            disc.attach(peer)

            def on_heartbeat(msg, i=i):
                received[i] += 1

            peer.on("hb", on_heartbeat)
            peers.append(peer)
        for peer in peers[: self.RENDEZVOUS]:
            disc.add_rendezvous(peer)
        return _Swarm(sim, net, disc, peers, [self._pid(j) for j in succ],
                      queries, received)

    def segments(self, s: _Swarm):
        sim, peers, succ, disc = s.sim, s.peers, s.succ, s.disc
        stats = s.net.stats
        s.events0, s.sent0 = sim.events_executed, stats.sent
        s.bytes0, s.delivered0 = stats.bytes_sent, stats.delivered
        # 1. every peer advertises one service to its rendezvous
        for peer in peers:
            disc.publish(peer, Advertisement.make(
                ADV_SERVICE, f"svc:{peer.peer_id}", peer.peer_id,
                attrs={"host": peer.peer_id},
            ))
        sim.run()
        yield
        # 2. heartbeat rounds: cohorts of peers share a timestamp
        base, n, cohorts = sim.now, self.n_peers, self.COHORTS

        def cohort(offset: int):
            def fire() -> None:
                for i in range(offset, n, cohorts):
                    peers[i].send(succ[i], "hb", size_bytes=64)
            return fire

        for r in range(self.rounds):
            for g in range(cohorts):
                sim.call_at(base + r * self.PERIOD_S + g * self.STAGGER_S, cohort(g))
            sim.run()
            yield
        # 3. discovery queries by exact service name
        events = [
            disc.query(peers[a], adv_type=ADV_SERVICE, name=f"svc:{self._pid(w)}")
            for a, w in s.queries
        ]
        sim.run()
        return [[adv.publisher for adv in ev.value] for ev in events]

    def check(self, s: _Swarm, answers, ref) -> Outcome:
        stats = s.net.stats
        sent = stats.sent - s.sent0
        delivered = stats.delivered - s.delivered0
        wrong_hb = sum(1 for got, want in zip(s.received, ref["heartbeats"]) if got != want)
        wrong_q = sum(1 for got, want in zip(answers, ref["answers"]) if got != want)
        digest = hashlib.sha256(
            repr((s.received, answers, s.sim.now)).encode()
        ).hexdigest()
        return Outcome(
            ops_attempted=sent,
            ops_failed=min(sent, (sent - delivered) + wrong_hb + wrong_q),
            checksum=digest,
            sim_makespan_s=s.sim.now,
            counters={
                "simkernel.events": s.sim.events_executed - s.events0,
                "p2p.network.msgs": sent,
                "p2p.network.bytes": stats.bytes_sent - s.bytes0,
            },
        )


# ---------------------------------------------------------------------------
# grid workloads — a task graph run by controller + workers
# ---------------------------------------------------------------------------


def group_oracle(graph: TaskGraph, iterations: int) -> list[str]:
    """Per-iteration reference checksums from the un-distributed engine.

    A probe on each output node of the (single) policy group sees, per
    iteration, exactly the list the controller collects into
    ``RunReport.group_results`` — so ``result_checksum`` of the two
    agree when, and only when, the distributed run computed the same
    bits.  Probe values are dropped as they are hashed so the oracle's
    memory stays out of ``peak_rss_mb``.
    """
    (group,) = graph.groups()
    engine = LocalEngine(graph)
    probes = [
        engine.attach_probe(f"{group.name}/{task}", node)
        for task, node in group.output_map
    ]
    out = []
    for _ in range(iterations):
        engine.step()
        out.append(result_checksum([p.values[-1] for p in probes]))
        for p in probes:
            p.values.clear()
    return out


def _failed_ops(group_results: list, ref: list[str]) -> int:
    """Ops whose result is missing or differs from the oracle's."""
    failed = max(len(ref) - len(group_results), 0)
    for got, want in zip(group_results, ref):
        if result_checksum(got) != want:
            failed += 1
    return failed


def _wave_params(seed: int) -> dict[str, float]:
    """Seed -> source signal; the op count and frame sizes stay fixed."""
    rng = np.random.default_rng(seed)
    return {
        "frequency": float(rng.uniform(20.0, 200.0)),
        "amplitude": float(rng.uniform(0.2, 2.0)),
    }


@dataclass
class _GridRun:
    graph: TaskGraph
    grid: Any  # ConsumerGrid | ControllerNode
    workers: list
    events0: int = 0
    procs: list = field(default_factory=list)


class GridWorkload(Workload):
    """A task graph on ``ConsumerGrid`` (``transport`` sim or tcp loopback)."""

    transport = "sim"
    n_workers = 8
    iterations = 1
    grid_kwargs: dict = {}
    run_kwargs: dict = {}

    def build_graph(self, seed: int) -> TaskGraph:
        raise NotImplementedError

    def fault_plan(self, seed: int):
        return None

    def reference(self, seed: int) -> list[str]:
        return group_oracle(self.build_graph(seed), self.iterations)

    def setup(self, seed: int) -> _GridRun:
        graph = self.build_graph(seed)
        kwargs = dict(self.grid_kwargs)
        plan = self.fault_plan(seed)
        if plan is not None:
            kwargs["fault_plan"] = plan
        grid = ConsumerGrid(
            n_workers=self.n_workers, seed=seed, transport=self.transport, **kwargs
        )
        try:
            workers = grid.discover_workers()
        except BaseException:
            self._close(grid)
            raise
        return _GridRun(graph, grid, workers)

    def timed(self, s: _GridRun):
        s.events0 = s.grid.sim.events_executed
        return s.grid.run(s.graph, self.iterations, workers=s.workers, **self.run_kwargs)

    def teardown(self, s: _GridRun, graceful: bool = True) -> None:
        self._close(s.grid, graceful)

    @staticmethod
    def _close(grid, graceful: bool = False) -> None:
        """Close the grid's transport (a no-op on the simulator) under an
        alarm of its own; only a graceful teardown minds if that fires."""
        if not hasattr(grid.transport, "close"):
            return
        if not close_within(grid.transport) and graceful:
            raise RepTimeout("the transport did not close")

    def check(self, s: _GridRun, report, ref) -> Outcome:
        grid = s.grid
        failed = _failed_ops(report.group_results, ref)
        return Outcome(
            ops_attempted=self.iterations,
            ops_failed=failed,
            checksum=result_checksum(report.group_results),
            sim_makespan_s=report.makespan if self.transport == "sim" else None,
            counters={
                "simkernel.events": grid.sim.events_executed - s.events0,
                "p2p.network.msgs": report.messages_sent,
                "p2p.network.bytes": report.bytes_sent,
                "service.iterations": sum(
                    w.stats.iterations for w in grid.workers.values()
                ),
                "service.redispatches": report.redispatches,
                "service.integrity.votes": report.integrity.get("votes", 0),
                "service.integrity.wasted_execs": report.integrity.get(
                    "wasted_executions", 0
                ),
                "mobility.fetches": sum(
                    w.cache.stats.fetches for w in grid.workers.values()
                ),
                "faults.injected": report.recovery.get("faults", {}).get("injected", 0),
            },
            placements=dict(report.placements),
        )


class PipelineWorkload(GridWorkload):
    name = "sim_pipeline"
    why = ("Fig. 4 pipeline, 8 p2p stages, tiny frames and near-zero modelled "
           "compute: service controller/worker/policies, core.engine and the "
           "p2p message path dominate")
    grid_kwargs = dict(
        worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.iterations = 40 if quick else 300

    def build_graph(self, seed: int) -> TaskGraph:
        graph = pipeline_graph(8, samples=64)
        graph.task("Source").params.update(_wave_params(seed))
        return graph


class GalaxyWorkload(GridWorkload):
    name = "sim_galaxy_farm"
    why = ("Case 1 render farm on 8 DSL workers: apps.galaxy SPH scatter is "
           "nearly all host time and events are few; the control for kernel "
           "and protocol changes")

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.iterations, self.n_particles, self.resolution = (
            (6, 200, 16) if quick else (10, 2000, 64)
        )

    def build_graph(self, seed: int) -> TaskGraph:
        key = f"gridbench-galaxy-{seed}"
        generate_snapshots(self.iterations, self.n_particles, seed=seed, register_as=key)
        return build_galaxy_graph(key, resolution=self.resolution, policy="parallel")


class HostileWorkload(GridWorkload):
    name = "sim_hostile_farm"
    why = ("Case 2 search farm among lying volunteers: replicate-3 voting, "
           "digests, 1 s heartbeats and redispatch use the service layer "
           "differently from the pipeline; the verified path's cost shows here")
    # 8 workers, not the issue's 6: with 6 the hostile preset leaves two
    # honest peers, and on ~1 seed in 3 replicate-3 runs out of fresh
    # voters and accepts a plurality of liars — ops would fail by design.
    n_workers = 8
    grid_kwargs = dict(
        worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
        worker_efficiency=5e-3, heartbeat_interval=1.0,
    )
    run_kwargs = dict(verification="replicate-3", run_until=1e7)

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.iterations = 8 if quick else 20

    def build_graph(self, seed: int) -> TaskGraph:
        return build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=seed)

    #: which volunteers lie, and on which executions, is drawn once: the
    #: plan decides how many replicas, tie-breaks and redispatches an op
    #: costs (71-88 executions per 20 ops across plan seeds 21-30), so a
    #: plan drawn from --seed would make the *amount* of work, not just
    #: its values, differ from run to run
    PLAN_SEED = 5

    def fault_plan(self, seed: int):
        # start sits past assembly (~1 ms of sim time) and the horizon
        # covers any run: saboteurs never turn honest.
        return chaos(
            "hostile", seed=self.PLAN_SEED,
            workers=[f"worker-{i}" for i in range(self.n_workers)],
            start=0.01, horizon=1e6,
        )


# ---------------------------------------------------------------------------
# tcp workloads — three OS processes through repro.deployment
# ---------------------------------------------------------------------------


def free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """``count`` distinct ports that were free a moment ago."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            socks.append(sock)
        return [s.getsockname()[1] for s in socks]
    finally:
        for sock in socks:
            sock.close()


class TcpWorkload(GridWorkload):
    """Controller in this process, two worker subprocesses, real sockets.

    One rep is one fresh deployment (spawn, discover, run, shut down).
    Its timed phase deals the ops in :attr:`BATCHES` equal batches, each
    a complete ``ControllerNode.run`` and one clocked segment.
    """

    kind = "tcp"
    n_workers = 2
    samples = 256
    policy = "p2p"
    HOST = "127.0.0.1"
    BATCHES = 4
    #: ops per batch
    batch = 1
    #: modelled compute sleeps vanish: the wall clock sees protocol only
    EFFICIENCY = 1e6

    @property
    def iterations(self) -> int:
        return self.batch * self.BATCHES

    def build_graph(self, seed: int) -> TaskGraph:
        graph = pipeline_graph(2, samples=self.samples)
        graph.task("Source").params.update(_wave_params(seed))
        (group,) = graph.groups()
        group.policy = self.policy
        return graph

    def reference(self, seed: int) -> list[str]:
        # every batch is a fresh run of the graph: same ops, same answers
        return group_oracle(self.build_graph(seed), self.batch)

    def sim_twin(self, seed: int, iterations: int = 2):
        """The same graph on the deterministic simulator: its placements
        are what every tcp rep must reproduce, its makespan is the
        simulator's prediction for this deployment."""
        grid = ConsumerGrid(
            n_workers=self.n_workers, seed=seed, worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE, worker_efficiency=self.EFFICIENCY,
        )
        return grid.run(self.build_graph(seed), iterations=iterations)

    def setup(self, seed: int) -> _GridRun:
        graph = self.build_graph(seed)
        ports = free_ports(1 + self.n_workers, self.HOST)  # fresh per rep
        addresses = {
            "portal": (self.HOST, ports[0]),
            "controller": (self.HOST, ports[0]),
        }
        worker_ids = [f"worker-{i}" for i in range(self.n_workers)]
        for worker_id, port in zip(worker_ids, ports[1:]):
            addresses[worker_id] = (self.HOST, port)
        run = _GridRun(graph, None, [])
        try:
            for worker_id in worker_ids:
                run.procs.append(launch_worker(
                    worker_id, addresses[worker_id][1], addresses,
                    efficiency=self.EFFICIENCY,
                ))
            run.grid = ControllerNode(ports[0], addresses, seed=seed)
            run.workers = run.grid.wait_for_workers(self.n_workers, deadline_s=30.0)
        except BaseException:
            self.teardown(run, graceful=False)
            raise
        return run

    def segments(self, s: _GridRun):
        reports = []
        for i in range(self.BATCHES):
            if i:
                yield
            reports.append(s.grid.run(s.graph, self.batch, s.workers))
        return reports

    timed = Workload.timed  # the batches in one go, not GridWorkload's single run

    def worker_pids(self, s: _GridRun) -> list[int]:
        return [p.pid for p in s.procs]

    def teardown(self, s: _GridRun, graceful: bool = True) -> None:
        """Every exit path ends here: no child, no socket survives.
        The children go first: nothing after them may keep them alive."""
        try:
            if graceful:
                s.grid.shutdown_workers(s.workers)
        finally:
            try:
                with alarm_deferred():  # an alarm here would skip a child
                    for proc in s.procs:
                        try:
                            proc.wait(timeout=5.0 if graceful else 0.0)
                        except subprocess.TimeoutExpired:
                            proc.kill()
                            proc.wait(timeout=10.0)
            finally:
                if s.grid is not None:
                    self._close(s.grid, graceful)
        alive = [p.pid for p in s.procs if p.poll() is None]
        if alive:
            raise RuntimeError(f"worker children still alive: {alive}")

    def check(self, s: _GridRun, reports, ref) -> Outcome:
        results = [r.group_results for r in reports]
        return Outcome(
            ops_attempted=self.iterations,
            ops_failed=sum(_failed_ops(batch, ref) for batch in results)
            + self.batch * (self.BATCHES - len(results)),
            checksum=result_checksum(results),
            sim_makespan_s=None,
            counters={
                "p2p.network.msgs": sum(r.messages_sent for r in reports),
                "p2p.network.bytes": sum(r.bytes_sent for r in reports),
                "service.redispatches": sum(r.redispatches for r in reports),
            },
            # later batches get fresh deployment ids; the first batch is
            # the one the simulated twin predicts
            placements=dict(reports[0].placements) if reports else {},
        )

    def traced_twin(self) -> Workload:
        return _LoopbackTwin(self)


class _LoopbackTwin(GridWorkload):
    """One batch of a tcp workload on ``ConsumerGrid(transport="tcp")``:
    every frame crosses a real socket and the codec, but all peers live
    in this process, where one tracer sees every layer.  The
    multi-process run stays untraced."""

    kind = "tcp"
    transport = "tcp"
    n_workers = TcpWorkload.n_workers
    grid_kwargs = dict(
        worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
        worker_efficiency=TcpWorkload.EFFICIENCY,
    )

    def __init__(self, parent: TcpWorkload):
        super().__init__(parent.quick)
        self.name = parent.name
        self.iterations = parent.batch
        self.build_graph = parent.build_graph


class TcpPipelineWorkload(TcpWorkload):
    name = "tcp_pipeline"
    why = ("3 OS processes, 2-stage p2p pipeline, ~2 KB frames: per-frame cost "
           "of transport.wire, transport.tcp and the runtime pump, worker-to-"
           "worker hops; setup_s is the real spawn + discovery cost")
    samples = 256
    policy = "p2p"

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.batch = 10 if quick else 600


class TcpBulkWorkload(TcpWorkload):
    name = "tcp_bulk_farm"
    why = ("same deployment as a parallel farm with 131 KB each way per op: "
           "byte-bound (ndarray codec, socket drain, pump under back-pressure) "
           "where tcp_pipeline is frame-bound")
    samples = 16384
    policy = "parallel"

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.batch = 2 if quick else 150


WORKLOADS = {
    cls.name: cls
    for cls in (
        SwarmWorkload, PipelineWorkload, GalaxyWorkload, HostileWorkload,
        TcpPipelineWorkload, TcpBulkWorkload,
    )
}


def make_workload(name: str, quick: bool = False) -> Workload:
    try:
        return WORKLOADS[name](quick)
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; know {', '.join(WORKLOADS)}"
        ) from None
