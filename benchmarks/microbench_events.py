#!/usr/bin/env python
"""Event-throughput microbenchmark: queue ops/sec and kernel events/sec.

Two layers, three scheduling regimes each:

* **queue level** — raw push/pop throughput of
  :class:`repro.simkernel.queues.CalendarQueue` against a reference
  ``heapq`` of ``(time, seq, item)`` tuples (the kernel's pre-calendar
  implementation), on identical workloads.  This isolates the data
  structure from the rest of the kernel.
* **kernel level** — end-to-end ``Simulator`` events/sec, including
  event allocation, callback dispatch and clock advance.

Regimes (the shapes discrete-event grids actually produce):

* ``storm``     — delay-0 cascades: every event lands on the current
  timestamp (the tie-heaviest case, the calendar queue's O(1) path);
* ``staggered`` — every event at a new strictly-later timestamp (the
  calendar queue's worst case: one heap op per event, like the old heap
  but with bucket overhead);
* ``cohorts``   — swarm heartbeats: many peers sharing a few staggered
  offsets per round, a deep pending set with massive ties (the
  ``bench_e16_swarm`` regime).

One extra queue-level regime, ``deep``, scales the cohort workload to a
multi-million-event pending set (push everything, then drain).  This is
the 10^5-10^6-peer consumer-grid regime the calendar queue is built
for: heap cost grows with log(pending set) while the calendar stays
O(1) per tie, so the ratio widens with depth — this is where the >=10x
headline number comes from (see ``docs/performance.md`` for the full
depth sweep and the honest caveats about shallow queues).

Results are printed as a table and written as JSON (default
``benchmarks/results/MICROBENCH_events.json``) for the CI artifact
upload.  Every throughput number here is wall-clock and therefore
**ungated** — ``tools/bench_gate.py`` only reads ``BENCH_*.json`` files,
and machine speed must never fail CI.  The numbers exist so the
events/sec trend is visible per PR; ``docs/performance.md`` records the
reference points.

The one thing that *is* gated is a count: GC-tracked objects kept alive
per pending ``Simulator.call_at`` and per in-flight ``Peer.send``
(``allocs_per_call_at`` / ``allocs_per_message``).  Those do not depend
on the runner, so the script exits non-zero when either exceeds
:data:`ALLOC_BUDGET` (``tests/test_alloc_budget.py`` asserts the same
budget in tier-1).

Usage::

    PYTHONPATH=src python benchmarks/microbench_events.py
    PYTHONPATH=src python benchmarks/microbench_events.py --events 200000
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time
from heapq import heappop, heappush

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.p2p.network import SimNetwork  # noqa: E402
from repro.p2p.peer import Peer  # noqa: E402
from repro.simkernel import CalendarQueue, Simulator  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Upper bounds on GC-tracked objects per operation (see
#: ``docs/performance.md``, "The message path").  Bounds, not equalities:
#: interpreter versions differ in what they track.
ALLOC_BUDGET = {"allocs_per_call_at": 2.0, "allocs_per_message": 5.0}


class _ReferenceHeap:
    """The kernel's previous queue: one heap of (time, seq, item) tuples."""

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, time, item):
        heappush(self._heap, (time, self._seq, item))
        self._seq += 1

    def pop(self):
        when, _seq, item = heappop(self._heap)
        return when, item

    def __len__(self):
        return len(self._heap)


def _workload(regime: str, n: int):
    """Yield (time, phase) pairs; phase alternates bulk push / drain."""
    if regime == "storm":
        # One deep bucket: n pushes at t=0, then n pops.
        return [(0.0, i) for i in range(n)]
    if regime == "staggered":
        return [(0.001 * i, i) for i in range(n)]
    if regime == "cohorts":
        # 16 offsets per 30 s round, round-robin across n "peers".
        return [(30.0 * (i // (n // 5 or 1)) + 0.25 * (i % 16), i) for i in range(n)]
    raise ValueError(regime)


def bench_queue(queue_cls, regime: str, n: int) -> float:
    """Ops/sec (one op = one push or one pop) for a queue implementation."""
    items = _workload(regime, n)
    q = queue_cls()
    t0 = time.perf_counter()
    # Interleave to keep the pending set deep: push half, then alternate.
    half = n // 2
    for when, item in items[:half]:
        q.push(when, item)
    for when, item in items[half:]:
        q.push(when, item)
        q.pop()
    while len(q):
        q.pop()
    dt = time.perf_counter() - t0
    return (2 * n) / dt


def bench_queue_deep(queue_cls, n: int) -> float:
    """Ops/sec on an n-deep cohort pending set: push all n, then drain.

    Models the full swarm's pending set at once (every peer's next
    heartbeat already scheduled) rather than the interleaved
    steady-state of :func:`bench_queue`.  Heap ops pay O(log n) against
    the whole set; the calendar pays O(1) per tie plus one heap op per
    *distinct* timestamp (16 here), so the gap widens with depth.
    """
    q = queue_cls()
    t0 = time.perf_counter()
    for i in range(n):
        q.push(0.25 * (i % 16), i)
    while len(q):
        q.pop()
    dt = time.perf_counter() - t0
    return (2 * n) / dt


def bench_kernel(regime: str, n: int) -> float:
    """End-to-end Simulator events/sec for one regime."""
    sim = Simulator()
    if regime == "storm":
        count = [0]

        def cb():
            count[0] += 1
            if count[0] < n:
                sim.call_at(sim.now, cb)

        sim.call_at(0.0, cb)
    elif regime == "staggered":
        count = [0]

        def cb():
            count[0] += 1
            if count[0] < n:
                sim.call_at(sim.now + 0.001, cb)

        sim.call_at(0.0, cb)
    elif regime == "cohorts":
        rounds, cohorts = 5, 16
        per_round = n // rounds

        def noop():
            pass

        def make_cohort(r, g):
            def fire():
                for _ in range(per_round // cohorts):
                    sim.call_at(sim.now, noop)

            return fire

        for r in range(rounds):
            for g in range(cohorts):
                sim.call_at(30.0 * r + 0.25 * g, make_cohort(r, g))
    else:
        raise ValueError(regime)
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return sim.events_executed / dt


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000,
                        help="events per regime (default 200000)")
    parser.add_argument("--deep-events", type=int, default=4_000_000,
                        help="pending-set depth for the deep regime "
                             "(default 4000000)")
    parser.add_argument("--out", default=str(RESULTS_DIR / "MICROBENCH_events.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    regimes = ("storm", "staggered", "cohorts")
    result = {"schema": 1, "events_per_regime": args.events,
              "deep_events": args.deep_events,
              "queue_ops_per_s": {}, "kernel_events_per_s": {}}
    print(f"event-throughput microbench ({args.events} events/regime)")
    print(f"{'regime':10s} {'heapq ref':>12s} {'calendar':>12s} {'ratio':>7s} "
          f"{'kernel ev/s':>12s}")
    for regime in regimes:
        ref = bench_queue(_ReferenceHeap, regime, args.events)
        cal = bench_queue(CalendarQueue, regime, args.events)
        kern = bench_kernel(regime, args.events)
        result["queue_ops_per_s"][regime] = {
            "heapq_reference": round(ref), "calendar": round(cal),
            "ratio": round(cal / ref, 2),
        }
        result["kernel_events_per_s"][regime] = round(kern)
        print(f"{regime:10s} {ref/1e3:>10.0f}k {cal/1e3:>10.0f}k "
              f"{cal/ref:>6.1f}x {kern/1e3:>10.0f}k")

    # Depth regime: the swarm-scale pending set where the calendar's
    # asymptotic advantage shows (the >=10x headline).
    ref = bench_queue_deep(_ReferenceHeap, args.deep_events)
    cal = bench_queue_deep(CalendarQueue, args.deep_events)
    result["queue_ops_per_s"]["deep"] = {
        "heapq_reference": round(ref), "calendar": round(cal),
        "ratio": round(cal / ref, 2),
    }
    print(f"{'deep':10s} {ref/1e3:>10.0f}k {cal/1e3:>10.0f}k "
          f"{cal/ref:>6.1f}x {'-':>11s}  ({args.deep_events} pending)")

    for name, measure in (("allocs_per_call_at", allocs_per_call_at),
                          ("allocs_per_message", allocs_per_message)):
        result[name] = measure()
        print(f"{name:20s} {result[name]:>6.1f} GC-tracked objects "
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
