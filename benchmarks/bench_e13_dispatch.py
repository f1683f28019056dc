"""E13 (ablation) — placement-aware dispatch on a heterogeneous fleet.

Paper anchor (abstract): Triana "can support the user in making placement
decisions for their modules"; §4: discovery by "CPU capability".  Real
consumer fleets are heterogeneous — we compare blind round-robin against
capability-weighted dispatch on a fleet that mixes 4 GHz and 1 GHz
volunteers.

A second section exercises message granularity on the paper's own DSL
profile: with a contended 32 kB/s controller uplink and tiny per-frame
payloads, the per-message envelope dominates the wire, so the ``chunked``
policy (k iterations per message) beats the one-message-per-iteration
``parallel`` farm on makespan with identical dealing.
"""

import dataclasses

from benchlib import timed

from repro.analysis import LAN_GRID, render_table
from repro.core import TaskGraph
from repro.grid import ConsumerGrid
from repro.p2p import LAN_PROFILE


def heavy_graph():
    g = TaskGraph("farm")
    g.add_task("Wave", "Wave", samples=8192)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy="parallel")
    return g


def _cpu(flops):
    return dataclasses.replace(LAN_PROFILE, cpu_flops=flops)


def build_hetero_grid(seed, fast_cpus=2, slow_cpus=2, trace=False):
    grid = ConsumerGrid(
        LAN_GRID, n_workers=fast_cpus, seed=seed, worker_profile=_cpu(4e9),
        trace=trace,
    )
    for i in range(slow_cpus):
        grid.add_worker(f"slow-{i}", profile=_cpu(1e9))
    grid.sim.run()
    return grid


def run_dispatch_ablation(iterations=24, trace=False):
    rows = []
    tracer = None
    for dispatch, seed in (("round_robin", 301), ("weighted", 302)):
        traced = trace and dispatch == "weighted"
        grid = build_hetero_grid(seed, trace=traced)
        if traced:
            tracer = grid.sim.tracer
        report = grid.run(heavy_graph(), iterations=iterations, dispatch=dispatch)
        loads = {w: svc.stats.iterations for w, svc in grid.workers.items()}
        rows.append(
            {
                "dispatch": dispatch,
                "makespan_s": report.makespan,
                "fast_load": sum(v for k, v in loads.items() if k.startswith("worker")),
                "slow_load": sum(v for k, v in loads.items() if k.startswith("slow")),
            }
        )
    return {"rows": rows, "tracer": tracer}


def tiny_farm_graph(policy, samples=8):
    g = TaskGraph("tiny-farm")
    g.add_task("Wave", "Wave", samples=samples)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy=policy)
    return g


def run_chunking_ablation(iterations=192, trace=False):
    """parallel vs chunked on a contended DSL uplink, identical dealing.

    Both runs use round-robin dealing on the same 4-worker DSL fleet with
    ``contention=True``, so the only difference is message granularity:
    64 B of envelope per message amortised over k=8 iterations.
    """
    rows = []
    tracer = None
    for policy in ("parallel", "chunked"):
        traced = trace and policy == "chunked"
        grid = ConsumerGrid(n_workers=4, seed=401, contention=True, trace=traced)
        if traced:
            tracer = grid.sim.tracer
        report = grid.run(tiny_farm_graph(policy), iterations=iterations)
        kinds = grid.transport.stats.by_kind
        rows.append(
            {
                "policy": policy,
                "makespan_s": report.makespan,
                "exec_messages": kinds.get("group-exec", 0),
                "batch_messages": kinds.get("group-exec-batch", 0),
                "bytes_sent": grid.transport.stats.bytes_sent,
            }
        )
    return {"rows": rows, "tracer": tracer}


def test_e13_dispatch_ablation(benchmark, record_bench):
    result, wall = timed(
        benchmark, run_dispatch_ablation, kwargs={"trace": True}
    )
    rows = result["rows"]
    by = {r["dispatch"]: r for r in rows}
    assert by["weighted"]["makespan_s"] < 0.8 * by["round_robin"]["makespan_s"]
    assert by["weighted"]["fast_load"] > by["weighted"]["slow_load"]
    record_bench(
        "e13_dispatch",
        seed=302,
        wall_s=wall,
        sim_s=by["weighted"]["makespan_s"],
        tracer=result["tracer"],
        rows=rows,
        table=render_table(
            ["dispatch", "makespan (s)", "iters on 4 GHz pair",
             "iters on 1 GHz pair"],
            [
                (r["dispatch"], r["makespan_s"], r["fast_load"], r["slow_load"])
                for r in rows
            ],
            title=(
                "E13  heterogeneous farm (2× 4 GHz + 2× 1 GHz volunteers, "
                "24 frames)"
            ),
        ),
    )


def test_e13_chunked_uplink(benchmark, record_bench):
    result, wall = timed(
        benchmark, run_chunking_ablation, kwargs={"trace": True}
    )
    by = {r["policy"]: r for r in result["rows"]}
    # Same dealing, fewer envelopes: batching must win on the contended
    # DSL uplink, ship fewer bytes, and replace exec singles with batches.
    assert by["chunked"]["makespan_s"] < 0.95 * by["parallel"]["makespan_s"]
    assert by["chunked"]["bytes_sent"] < by["parallel"]["bytes_sent"]
    assert by["parallel"]["batch_messages"] == 0
    assert by["chunked"]["exec_messages"] == 0
    assert by["chunked"]["batch_messages"] > 0
    record_bench(
        "e13_chunking",
        seed=401,
        wall_s=wall,
        sim_s=by["chunked"]["makespan_s"],
        tracer=result["tracer"],
        rows=result["rows"],
        table=render_table(
            ["policy", "makespan (s)", "exec msgs", "batch msgs",
             "bytes on the wire"],
            [
                (r["policy"], r["makespan_s"], r["exec_messages"],
                 r["batch_messages"], r["bytes_sent"])
                for r in result["rows"]
            ],
            title=(
                "E13b  message granularity on a contended DSL uplink "
                "(4 volunteers, 192 frames, round-robin dealing)"
            ),
        ),
    )
