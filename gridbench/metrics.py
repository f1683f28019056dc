"""The metric catalogue: one table, from which ``BENCHMARK.json`` is derived.

Every metric names its unit, its good direction and the *clock* it is
measured on — ``host`` (this machine's wall or CPU clock, calibrated),
``sim`` (the simulator's clock, a pure function of the seed) or
``count`` (an exact work counter).  ``BENCHMARK.json`` has no field for
the clock, so the table here is the record and
``gridbench/tests/test_spec.py`` pins the two against each other.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "Metric", "END_TO_END", "EXACT", "LADDER", "TRACE_LAYERS", "COUNTERS",
    "per_layer_metrics", "benchmark_spec", "quartiles",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "sim" | "count"
    doc: str
    #: share of the parent's median by which the metric may worsen;
    #: None for per-layer metrics (they explain, they do not gate)
    bound: Optional[float] = None


#: Bounded, printed by every ``--trace 0`` run on every workload.  Host
#: times are *calibrated* seconds (see gridbench.harness).  The three
#: timing bounds sit at the contract's ceiling of 0.25: the spreads
#: measured over ten runs (README, "Noise protocol") are 2-11 % for the
#: rates and up to 18 % for set-up, and a bound is only usable when it
#: is a few times the spread.
END_TO_END = (
    Metric("setup_s", "s", "lower", "host",
           "calibrated seconds of one set-up: inputs generated from the "
           "seed, grid/peers assembled, (tcp) workers spawned and discovered",
           bound=0.25),
    Metric("ops_per_s", "1/s", "higher", "host",
           "ops settled / calibrated seconds of the timed phase", bound=0.25),
    Metric("cpu_ms_per_op", "ms", "lower", "host",
           "calibrated CPU time of the bench process plus worker processes "
           "over the timed phase / ops settled", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "ru_maxrss of the workload process plus, for tcp, the "
           "largest worker child", bound=0.10),
)

#: Exact companions of the end-to-end set: compared bit-for-bit by
#: ``gridbench compare`` instead of against a relative bound (a bound
#: is a share of the parent's median, which is 0 for the failure share
#: and meaningless for a pure function of the seed).
EXACT = (
    Metric("sim_makespan_s", "sim_s", "lower", "sim",
           "RunReport.makespan (sim.now for the swarm); sim_* only"),
    Metric("ops_failed_share", "ratio", "lower", "count",
           "ops_failed / ops_attempted"),
)

#: (A) the ladder: each rung drives one more layer's public API.
LADDER = (
    Metric("simkernel.queue_ns_per_op", "ns", "lower", "host",
           "CalendarQueue push/pop, cohorts regime"),
    Metric("simkernel.event_tie_ns", "ns", "lower", "host",
           "Simulator.call_at + run, every event on the current timestamp"),
    Metric("simkernel.event_distinct_ns", "ns", "lower", "host",
           "Simulator.call_at + run, every event on a new timestamp"),
    Metric("p2p.network.send_ns", "ns", "lower", "host",
           "SimNetwork.send -> raw node handler"),
    Metric("p2p.peer.dispatch_ns", "ns", "lower", "host",
           "Peer.send -> Peer.on handler"),
    Metric("p2p.pipes.send_ns", "ns", "lower", "host",
           "OutputPipe.send -> InputPipe.get"),
    Metric("p2p.discovery.query_us", "us", "lower", "host",
           "one rendezvous query over 1000 adverts"),
    Metric("core.engine.step_us", "us", "lower", "host",
           "LocalEngine.step on a Wave -> Gain graph"),
    Metric("service.roundtrip_us", "us", "lower", "host",
           "host time per iteration of a Gain farm on transport=sim"),
    Metric("service.integrity.digest_small_us", "us", "lower", "host",
           "canonical_digest of a 3-scalar list"),
    Metric("service.integrity.digest_bulk_MBps", "MB/s", "higher", "host",
           "canonical_digest of a 131 KB ndarray"),
    Metric("apps.galaxy.render_ms", "ms", "lower", "host",
           "sph_column_density, 2000 particles, resolution 64"),
    Metric("apps.inspiral.search_ms", "ms", "lower", "host",
           "search_chunk, 8 templates, 4 s chunk"),
    Metric("mobility.ensure_cold_us", "us", "lower", "host",
           "ModuleCache.ensure, first fetch from the repository"),
    Metric("mobility.ensure_hit_ns", "ns", "lower", "host",
           "ModuleCache.ensure on a cached module (sticky policy)"),
    Metric("transport.wire.encode_small_us", "us", "lower", "host",
           "encode_message, group-exec frame of a few hundred bytes"),
    Metric("transport.wire.decode_small_us", "us", "lower", "host",
           "decode_message of the same frame"),
    Metric("transport.wire.encode_bulk_MBps", "MB/s", "higher", "host",
           "encode_message, 131 KB ndarray payload"),
    Metric("transport.wire.decode_bulk_MBps", "MB/s", "higher", "host",
           "decode_message of the same frame"),
    Metric("transport.tcp.rtt_p50_us", "us", "lower", "host",
           "closed-loop ping-pong over one pooled loopback link, median"),
    Metric("transport.tcp.rtt_p99_us", "us", "lower", "host",
           "same, 99th percentile"),
    Metric("transport.tcp.stream_small_fps", "1/s", "higher", "host",
           "one-way stream of small frames, frames per second"),
    Metric("transport.tcp.stream_bulk_MBps", "MB/s", "higher", "host",
           "one-way stream of 131 KB frames"),
    Metric("deployment.spawn_s", "s", "lower", "host",
           "launch_worker -> its advert visible to the controller"),
)

#: (B) the traced run: layers the wrappers in trace.py attribute time to.
TRACE_LAYERS = (
    "simkernel", "p2p.network", "p2p.peer", "p2p.discovery",
    "service.controller", "service.policies", "service.worker",
    "service.integrity", "core.engine", "core.toolbox", "apps",
    "mobility", "transport.wire", "transport.tcp",
    # the root span's own time: bench driver code and anything unwrapped
    "other",
)

#: Exact work counters of one timed phase; must repeat bit-for-bit on
#: the sim workloads.
COUNTERS = (
    Metric("simkernel.events", "count", "lower", "count",
           "Simulator.events_executed over the timed phase"),
    Metric("p2p.network.msgs", "count", "lower", "count",
           "NetStats.sent over the timed phase"),
    Metric("p2p.network.bytes", "count", "lower", "count",
           "NetStats.bytes_sent (modelled sizes) over the timed phase"),
    Metric("service.iterations", "count", "lower", "count",
           "worker executions, ServiceStats.iterations summed"),
    Metric("service.redispatches", "count", "lower", "count",
           "RunReport.redispatches"),
    Metric("service.integrity.votes", "count", "lower", "count",
           "RunReport.integrity['votes']"),
    Metric("service.integrity.wasted_execs", "count", "lower", "count",
           "RunReport.integrity['wasted_executions']"),
    Metric("mobility.fetches", "count", "lower", "count",
           "CacheStats.fetches summed over the workers"),
    Metric("faults.injected", "count", "lower", "count",
           "FaultInjector.summary()['injected']"),
    Metric("transport.wire.frames", "count", "lower", "count",
           "encode_message calls seen by the trace wrapper"),
    Metric("transport.wire.bytes", "count", "lower", "count",
           "encoded frame bytes seen by the trace wrapper"),
)


def per_layer_metrics() -> list[Metric]:
    """Every metric a ``--trace 1`` run prints, in a stable order."""
    out = list(LADDER)
    for layer in TRACE_LAYERS:
        out.append(Metric(f"{layer}.calls", "count", "lower", "count",
                          f"spans recorded for layer {layer}"))
        out.append(Metric(f"{layer}.self_s", "s", "lower", "host",
                          f"self time of layer {layer} in the traced run"))
        out.append(Metric(f"{layer}.self_share", "ratio", "lower", "host",
                          f"{layer}.self_s / traced wall"))
    out.extend(COUNTERS)
    out.append(Metric("sim.makespan_s", "sim_s", "lower", "sim",
                      "simulated makespan of the traced run (tcp: of "
                      "the simulated twin)"))
    out.append(Metric("bench.traced_wall_s", "s", "lower", "host",
                      "wall time of the traced timed phase"))
    out.append(Metric("bench.trace_overhead_pct", "%", "lower", "host",
                      "traced wall over the untraced median, minus one"))
    return out


def benchmark_spec(workloads: Sequence[tuple[str, str]], run_seconds: int) -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "gridbench", "measure"],
        "paths": ["gridbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer_metrics()
        ],
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
