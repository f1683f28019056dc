"""The layer ladder: one fixed load pushed through one more layer per rung.

Every rung drives a layer's *public* API from outside and is timed from
outside; a rung's delta over the rung below is what that layer adds.
The first rungs reuse the queue and kernel regimes of
``benchmarks/microbench_events.py`` (cohorts for the queue, storm and
staggered for the kernel) so the two series can be read side by side.

``scale`` shrinks every load proportionally: ``python -m gridbench
ladder`` runs at 1.0 (100 000 small messages per rung), a traced
benchmark run uses a fraction so all six workloads fit the time cap.
Each rung is repeated and reports its median.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from repro import ConsumerGrid
from repro.apps.galaxy import generate_snapshots, sph_column_density
from repro.apps.inspiral import TemplateBank, make_strain_chunk, search_chunk
from repro.core.engine import LocalEngine
from repro.core.registry import global_registry
from repro.core.taskgraph import TaskGraph
from repro.core.types import SampleSet
from repro.deployment import ControllerNode, launch_worker
from repro.mobility.cache import ModuleCache
from repro.mobility.repository import ModuleRepository
from repro.p2p import SimNetwork
from repro.p2p.advertisement import ADV_SERVICE, Advertisement
from repro.p2p.discovery import RendezvousDiscovery
from repro.p2p.network import LAN_PROFILE, Message
from repro.p2p.peer import Peer
from repro.p2p.pipes import PipeManager
from repro.service.integrity import canonical_digest
from repro.simkernel import CalendarQueue, Simulator
from repro.transport import RealtimeSimulator, TcpTransport
from repro.transport.wire import decode_message, encode_message

from .harness import use_bytecode_cache
from .metrics import LADDER
from .timeout import close_within, hard_timeout
from .workloads import free_ports

__all__ = ["run_ladder", "BULK_SAMPLES"]

#: 16384 float64 samples = 131 KB, the tcp_bulk_farm frame
BULK_SAMPLES = 16384


def _require(ok: bool, what: str) -> None:
    """A rung whose load did not arrive measured nothing."""
    if not ok:
        raise RuntimeError(f"ladder rung broken: {what}")


def _timed(fn: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# Every rung below takes its load size and returns one sample of each
# metric it measures; run_ladder repeats rungs and takes medians.

# -- simkernel ----------------------------------------------------------------


def queue_rung(n: int) -> dict[str, float]:
    """Cohorts regime: 16 offsets per 30 s round, a deep set with ties."""
    items = [(30.0 * (i // (n // 5 or 1)) + 0.25 * (i % 16), i) for i in range(n)]
    half = n // 2
    q = CalendarQueue()
    t0 = time.perf_counter()
    for when, item in items[:half]:
        q.push(when, item)
    for when, item in items[half:]:
        q.push(when, item)
        q.pop()
    while len(q):
        q.pop()
    dt = time.perf_counter() - t0
    return {"simkernel.queue_ns_per_op": dt / (2 * n) * 1e9}


def _event_ns(n: int, step: float) -> float:
    """``call_at`` + ``run``: each callback schedules the next one
    ``step`` sim seconds on (0.0: all on one timestamp)."""
    sim = Simulator()
    count = [0]

    def cb() -> None:
        count[0] += 1
        if count[0] < n:
            sim.call_at(sim.now + step, cb)

    sim.call_at(0.0, cb)
    return _timed(sim.run) / n * 1e9


def event_rung(n: int) -> dict[str, float]:
    return {
        "simkernel.event_tie_ns": _event_ns(n, 0.0),
        "simkernel.event_distinct_ns": _event_ns(n, 0.001),
    }


# -- p2p ------------------------------------------------------------------------


def network_rung(n: int) -> dict[str, float]:
    sim = Simulator()
    net = SimNetwork(sim, jitter_fraction=0.0)
    got = [0]

    def handler(msg) -> None:
        got[0] += 1

    net.add_node("a", handler)
    net.add_node("b", handler)

    def load() -> None:
        send = net.send
        for _ in range(n):
            send(Message(kind="m", src="a", dst="b"))
        sim.run()

    dt = _timed(load)
    _require(got[0] == n, "SimNetwork lost messages")
    return {"p2p.network.send_ns": dt / n * 1e9}


def peer_rung(n: int) -> dict[str, float]:
    sim = Simulator()
    net = SimNetwork(sim, jitter_fraction=0.0)
    a, b = Peer("a", net), Peer("b", net)
    got = [0]

    def handler(msg) -> None:
        got[0] += 1

    b.on("m", handler)

    def load() -> None:
        for _ in range(n):
            a.send("b", "m")
        sim.run()

    dt = _timed(load)
    _require(got[0] == n, "Peer lost messages")
    return {"p2p.peer.dispatch_ns": dt / n * 1e9}


def pipes_rung(n: int) -> dict[str, float]:
    sim = Simulator()
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = RendezvousDiscovery()
    a, b = Peer("a", net), Peer("b", net)
    for peer in (a, b):
        disc.attach(peer)
    disc.add_rendezvous(a)
    inp = PipeManager(b, disc).create_input("ladder")
    out = PipeManager(a, disc).create_output("ladder")
    out.bind_direct("b")
    sim.run()

    def load() -> None:
        for i in range(n):
            out.send(i, size_bytes=256)
        sim.run()
        for _ in range(n):
            inp.get()
        sim.run()

    dt = _timed(load)
    _require(inp.received == n, "pipe lost payloads")
    return {"p2p.pipes.send_ns": dt / n * 1e9}


def discovery_rung(n_queries: int, n_adverts: int = 1000) -> dict[str, float]:
    sim = Simulator()
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = RendezvousDiscovery()
    peers = [Peer(f"p{i:04d}", net) for i in range(n_adverts + 1)]
    for peer in peers:
        disc.attach(peer)
    disc.add_rendezvous(peers[0])
    for peer in peers[1:]:
        disc.publish(peer, Advertisement.make(
            ADV_SERVICE, f"svc:{peer.peer_id}", peer.peer_id,
            attrs={"host": peer.peer_id},
        ))
    sim.run()

    def load() -> None:
        events = [
            disc.query(peers[1 + i % n_adverts], adv_type=ADV_SERVICE,
                       name=f"svc:p{1 + (7 * i) % n_adverts:04d}")
            for i in range(n_queries)
        ]
        sim.run()
        _require(all(len(ev.value) == 1 for ev in events), "a query missed its advert")

    return {"p2p.discovery.query_us": _timed(load) / n_queries * 1e6}


# -- core / service ----------------------------------------------------------------


def _gain_graph() -> TaskGraph:
    g = TaskGraph("ladder-gain")
    g.add_task("Source", "Wave", samples=64)
    g.add_task("Gain", "Gain", factor=2.0)
    g.add_task("Sink", "Grapher")
    g.connect("Source", 0, "Gain", 0)
    g.connect("Gain", 0, "Sink", 0)
    g.group_tasks("Farm", ["Gain"], policy="parallel")
    return g


def engine_rung(n: int) -> dict[str, float]:
    engine = LocalEngine(_gain_graph())

    def load() -> None:
        for _ in range(n):
            engine.step()

    return {"core.engine.step_us": _timed(load) / n * 1e6}


def service_rung(n: int) -> dict[str, float]:
    """Host time per iteration: controller -> worker exec -> result."""
    grid = ConsumerGrid(
        n_workers=2, seed=0, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
    )
    workers = grid.discover_workers()
    graph = _gain_graph()
    t0 = time.perf_counter()
    report = grid.run(graph, n, workers=workers)
    dt = time.perf_counter() - t0
    _require(len(report.group_results) == n, "farm lost iterations")
    return {"service.roundtrip_us": dt / n * 1e6}


def digest_rung(n_small: int, n_bulk: int) -> dict[str, float]:
    small = [1.0, 2, 3.5]
    bulk = [np.arange(BULK_SAMPLES, dtype=np.float64)]

    def load(payload, n) -> float:
        return _timed(lambda: [canonical_digest(payload) for _ in range(n)])

    return {
        "service.integrity.digest_small_us": load(small, n_small) / n_small * 1e6,
        "service.integrity.digest_bulk_MBps":
            n_bulk * bulk[0].nbytes / load(bulk, n_bulk) / 1e6,
    }


# -- apps ------------------------------------------------------------------------


def apps_rung(n: int) -> dict[str, float]:
    snapshot = generate_snapshots(1, 2000, seed=0)[0]
    bank = TemplateBank(8)
    chunk = make_strain_chunk(4.0, seed=0)
    search_chunk(chunk, bank)  # templates are built lazily, once

    def render() -> None:
        for _ in range(n):
            sph_column_density(snapshot, resolution=64)

    def search() -> None:
        for _ in range(n):
            search_chunk(chunk, bank)

    return {
        "apps.galaxy.render_ms": _timed(render) / n * 1e3,
        "apps.inspiral.search_ms": _timed(search) / n * 1e3,
    }


# -- mobility -------------------------------------------------------------------------


def mobility_rung(n_hits: int) -> dict[str, float]:
    names = sorted(global_registry().names())
    sim = Simulator()
    net = SimNetwork(sim, jitter_fraction=0.0)
    portal = Peer("portal", net, profile=LAN_PROFILE)
    worker = Peer("worker", net, profile=LAN_PROFILE)
    ModuleRepository(portal, global_registry())
    cache = ModuleCache(worker, "portal", policy="sticky", capacity_bytes=1 << 40)

    def cold() -> None:
        events = [cache.ensure(name) for name in names]
        sim.run()
        _require(all(ev.ok for ev in events), "a module fetch failed")

    cold_s = _timed(cold)

    def hits() -> None:
        ensure, name = cache.ensure, names[0]
        for _ in range(n_hits):
            ensure(name)

    return {
        "mobility.ensure_cold_us": cold_s / len(names) * 1e6,
        "mobility.ensure_hit_ns": _timed(hits) / n_hits * 1e9,
    }


# -- transport ------------------------------------------------------------------------


def _exec_message(samples: int, src="controller", dst="worker-0") -> Message:
    """A ``group-exec`` frame as the farm policy ships it."""
    payload = SampleSet(data=np.linspace(0.0, 1.0, samples), sampling_rate=1024.0)
    return Message(
        kind="group-exec", src=src, dst=dst,
        payload=("dep-1", 7, [payload]), size_bytes=payload.payload_nbytes() + 64,
    )


def wire_rung(n_small: int, n_bulk: int) -> dict[str, float]:
    out = {}
    for label, samples, n in (("small", 8, n_small), ("bulk", BULK_SAMPLES, n_bulk)):
        message = _exec_message(samples)
        frame = encode_message(message)
        t_enc = _timed(lambda: [encode_message(message) for _ in range(n)])
        t_dec = _timed(lambda: [decode_message(frame) for _ in range(n)])
        if label == "small":
            out["transport.wire.encode_small_us"] = t_enc / n * 1e6
            out["transport.wire.decode_small_us"] = t_dec / n * 1e6
        else:
            out["transport.wire.encode_bulk_MBps"] = n * len(frame) / t_enc / 1e6
            out["transport.wire.decode_bulk_MBps"] = n * len(frame) / t_dec / 1e6
    return out


class _Loopback:
    """One ``TcpTransport`` hosting two nodes: every frame leaves through
    the pooled link and comes back in through the listening socket."""

    def __init__(self):
        self.sim = RealtimeSimulator()
        self.transport = TcpTransport(self.sim)
        self.handlers: dict[str, Callable] = {}
        for node in ("a", "b"):
            self.transport.add_node(
                node, lambda msg, node=node: self.handlers[node](msg)
            )

    def __enter__(self) -> "_Loopback":
        return self

    def __exit__(self, *exc) -> None:
        close_within(self.transport)


def rtt_rung(n: int) -> dict[str, float]:
    """Closed-loop ping-pong, one frame in flight."""
    rtts: list[float] = []
    with _Loopback() as loop:
        sim, transport = loop.sim, loop.transport
        done = sim.event()
        sent_at = [0.0]

        def ping() -> None:
            sent_at[0] = time.perf_counter()
            transport.send(Message(kind="ping", src="a", dst="b", size_bytes=64))

        def on_b(msg) -> None:
            transport.send(Message(kind="pong", src="b", dst="a", size_bytes=64))

        def on_a(msg) -> None:
            rtts.append(time.perf_counter() - sent_at[0])
            if len(rtts) < n:
                ping()
            else:
                done.succeed(None)

        loop.handlers.update(a=on_a, b=on_b)
        ping()
        sim.run(until=done)
    rtts.sort()
    return {
        "transport.tcp.rtt_p50_us": rtts[len(rtts) // 2] * 1e6,
        "transport.tcp.rtt_p99_us": rtts[(len(rtts) * 99) // 100] * 1e6,
    }


def _stream_s(n: int, message: Message) -> float:
    """Seconds to push ``n`` copies of ``message`` one way, a -> b."""
    with _Loopback() as loop:
        sim, transport = loop.sim, loop.transport
        done = sim.event()
        got = [0]

        def on_b(msg) -> None:
            got[0] += 1
            if got[0] == n:
                done.succeed(None)

        loop.handlers.update(a=lambda msg: None, b=on_b)
        t0 = time.perf_counter()
        for _ in range(n):
            transport.send(message)
        sim.run(until=done)
        return time.perf_counter() - t0


def stream_rung(n_small: int, n_bulk: int) -> dict[str, float]:
    bulk = _exec_message(BULK_SAMPLES, "a", "b")
    return {
        "transport.tcp.stream_small_fps":
            n_small / _stream_s(n_small, _exec_message(8, "a", "b")),
        "transport.tcp.stream_bulk_MBps":
            n_bulk * len(encode_message(bulk)) / _stream_s(n_bulk, bulk) / 1e6,
    }


def spawn_rung() -> dict[str, float]:
    """``launch_worker`` -> its advert answers a controller query."""
    host = "127.0.0.1"
    port_c, port_w = free_ports(2, host)
    addresses = {"portal": (host, port_c), "controller": (host, port_c),
                 "worker-0": (host, port_w)}
    node = ControllerNode(port_c, addresses)
    proc = None
    try:
        t0 = time.perf_counter()
        proc = launch_worker("worker-0", port_w, addresses)
        workers = node.wait_for_workers(1, deadline_s=30.0)
        dt = time.perf_counter() - t0
        node.shutdown_workers(workers)
        proc.wait(timeout=10.0)
        return {"deployment.spawn_s": dt}
    finally:
        # the child first: nothing after it may keep it alive
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        close_within(node)


# -- the whole ladder ----------------------------------------------------------------


def run_ladder(scale: float = 1.0, repeats: int = 3) -> dict[str, float]:
    """Every ladder metric by name (see :data:`gridbench.metrics.LADDER`):
    the median over ``repeats`` samples of each rung."""

    def n(full: int, floor: int) -> int:
        return max(int(full * scale), floor)

    msgs = n(100_000, 1000)
    rungs: list[Callable[[], dict[str, float]]] = [
        lambda: queue_rung(msgs),
        lambda: event_rung(msgs),
        lambda: network_rung(msgs),
        lambda: peer_rung(msgs),
        lambda: pipes_rung(msgs),
        lambda: discovery_rung(n(500, 20)),
        lambda: engine_rung(n(20_000, 500)),
        lambda: service_rung(n(5_000, 200)),
        lambda: digest_rung(n(50_000, 1000), n(1_000, 50)),
        lambda: apps_rung(n(10, 2)),
        lambda: mobility_rung(msgs),
        lambda: wire_rung(n(20_000, 500), n(500, 30)),
        lambda: rtt_rung(n(5_000, 3_000)),  # never fewer than 3000 trips
        lambda: stream_rung(n(20_000, 1000), n(500, 30)),
        spawn_rung,
    ]
    use_bytecode_cache()
    out: dict[str, float] = {}
    with hard_timeout(170.0):
        spawn_rung()  # fills the workers' bytecode cache
        for rung in rungs:
            samples = [rung() for _ in range(repeats)]
            for name in samples[0]:
                out[name] = statistics.median(s[name] for s in samples)
    missing = {m.name for m in LADDER} - set(out)
    _require(not missing, f"rungs not measured: {sorted(missing)}")
    return out
