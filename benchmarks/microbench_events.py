#!/usr/bin/env python
"""Allocation- and event-count gate for the simulated message path.

Every simulated message and timer crosses ``Simulator.call_at`` and
``SimNetwork.send``; on a 10k-peer heap what they *allocate* decides how
often the collector runs.  This script counts GC-tracked objects kept
alive per pending ``Simulator.call_at``, per in-flight ``Peer.send`` and
per joined, idle peer under each discovery strategy
(``allocs_per_call_at`` / ``allocs_per_message`` / ``allocs_per_peer``),
and the kernel events one stage hop of a p2p pipeline schedules
(``events_per_hop``).  A count does not depend on the runner, so it
gates: the script exits non-zero when any exceeds :data:`ALLOC_BUDGET`
(``tests/test_alloc_budget.py`` asserts the same budget in tier-1), and
the numbers are written as JSON (default
``benchmarks/results/MICROBENCH_events.json``) for the CI artifact.

Wall clock — queue ops/sec, kernel events/sec — is gridbench's job: the
``simkernel.*`` rungs of ``python -m gridbench ladder`` report the same
regimes as calibrated medians (see ``docs/performance.md``).

Usage::

    PYTHONPATH=src python benchmarks/microbench_events.py
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import ConsumerGrid  # noqa: E402
from repro.analysis.workloads import pipeline_graph  # noqa: E402
from repro.p2p.discovery import (  # noqa: E402
    CentralIndexDiscovery, FloodingDiscovery, RendezvousDiscovery,
)
from repro.p2p.network import SimNetwork  # noqa: E402
from repro.p2p.peer import Peer  # noqa: E402
from repro.simkernel import Simulator  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Upper bounds on GC-tracked objects per operation (see
#: ``docs/performance.md``, "The message path" and "What a peer costs the
#: collector").  Bounds, not equalities: interpreter versions differ in
#: what they track.  ``events_per_hop`` is kernel events, exact on any
#: interpreter ("A stage hop: what one execution schedules").
ALLOC_BUDGET = {
    "allocs_per_call_at": 2.0, "allocs_per_message": 5.0, "allocs_per_peer": 5.0,
    "events_per_hop": 3.0,
}

#: The discovery strategies ``allocs_per_peer`` is counted under.
STRATEGIES = (CentralIndexDiscovery, FloodingDiscovery, RendezvousDiscovery)


def live_objects_per_op(op, n: int = 500, warmup: int = 100) -> float:
    """GC-tracked objects each ``op()`` leaves alive, averaged over ``n``.

    With the collector off, ``gc.get_count()[0]`` is tracked-object
    allocations minus deallocations since the last collection, so its
    growth over ``n`` calls is what the calls left on the heap for the
    collector to traverse.  The warm-up absorbs one-time allocations
    (lazily created RNG streams, dict entries); the result is rounded to
    one decimal because the measuring loop and amortised container
    growth (a tie bucket in the queue) add a handful of objects per run.
    """
    for _ in range(warmup):
        op()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(n):
            op()
        after = gc.get_count()[0]
    finally:
        if was_enabled:
            gc.enable()
    return round((after - before) / n, 1)


def allocs_per_call_at() -> float:
    """Objects per pending ``call_at(when, fn, arg)``: event + args."""
    sim = Simulator()
    when = [0.0]

    def noop(_arg):
        pass

    def op():
        when[0] += 1.0
        sim.call_at(when[0], noop, 7)

    return live_objects_per_op(op)


def allocs_per_message() -> float:
    """Objects per in-flight ``Peer.send``: message + scheduled delivery."""
    sim = Simulator()
    net = SimNetwork(sim)
    a, b = Peer("a", net), Peer("b", net)
    b.on("m", lambda msg: None)
    return live_objects_per_op(lambda: a.send("b", "m"))


def allocs_per_peer(strategy) -> float:
    """Objects per joined, idle peer: a ``Peer`` attached to ``strategy``.

    The peer, its handler table, its advert cache and that cache's record
    dict, and the bound ``_dispatch`` the network holds; the discovery
    handlers are the service's, shared by every peer.
    """
    net = SimNetwork(Simulator())
    disc = strategy()
    ids = itertools.count()
    return live_objects_per_op(lambda: disc.attach(Peer(f"p{next(ids)}", net)))


def allocs_per_peer_worst() -> float:
    """:func:`allocs_per_peer` under the strategy that keeps the most alive."""
    return max(allocs_per_peer(strategy) for strategy in STRATEGIES)


def pipeline_events(stages: int, iterations: int) -> int:
    """Kernel events one p2p pipeline run executes, set-up excluded."""
    grid = ConsumerGrid(n_workers=8, seed=1)
    before = grid.sim.events_executed
    grid.run(pipeline_graph(stages, samples=64), iterations)
    return grid.sim.events_executed - before


def events_per_hop(n: int = 10) -> float:
    """Kernel events per stage-iteration of a p2p chain: arrival, start,
    finish.

    Per-run, per-stage (deployment) and per-iteration (controller) costs
    cancel in the double difference of 8 vs 4 stages × ``2n`` vs ``n``
    iterations, which leaves ``4n`` stage-iterations.
    """
    e = {(s, k): pipeline_events(s, k) for s in (4, 8) for k in (n, 2 * n)}
    return (e[8, 2 * n] - e[8, n] - e[4, 2 * n] + e[4, n]) / (4 * n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(RESULTS_DIR / "MICROBENCH_events.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    result = {"schema": 4}
    for name, measure, unit in (
        ("allocs_per_call_at", allocs_per_call_at, "GC-tracked objects"),
        ("allocs_per_message", allocs_per_message, "GC-tracked objects"),
        ("allocs_per_peer", allocs_per_peer_worst, "GC-tracked objects"),
        ("events_per_hop", events_per_hop, "kernel events"),
    ):
        result[name] = measure()
        print(f"{name:20s} {result[name]:>6.1f} {unit} "
              f"(budget {ALLOC_BUDGET[name]:.0f})")
    over_budget = [n for n, cap in ALLOC_BUDGET.items() if result[n] > cap]
    if over_budget:
        print(f"OVER ALLOCATION BUDGET: {', '.join(over_budget)}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[saved to {out}]")
    return 1 if over_budget else 0


if __name__ == "__main__":
    sys.exit(main())
