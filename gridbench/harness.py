"""The measuring loop: repetitions, clocks, failure accounting.

One *run* of a workload is one process.  It computes the oracle once
(untimed), makes one discarded warm-up repetition (imports, numpy
warm-up, the workers' bytecode cache), then repeats

    set-up (timed as ``setup_s``)  ->  timed phase  ->  teardown  ->  check

on a fresh grid each time until the time budget is spent, and reports
each end-to-end metric as the median over those repetitions.

**Calibrated seconds.**  The boxes this runs on change speed by up to
2x for seconds to minutes at a time (a uniform slowdown of everything,
not descheduling — README "Noise protocol" has the measurements), so a
raw wall-clock rate says more about the neighbours than about the
program.  Every clocked segment is therefore bracketed by a fixed
reference spin (:class:`ReferenceSpin`) that measures the box's current
slowdown, and host times are reported in *calibrated seconds*: raw
seconds divided by the mean slowdown before and after.  Raw wall times
are kept beside them in every result file.
"""

from __future__ import annotations

import gc
import heapq
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import OUT_DIR, ROOT
from .metrics import COUNTERS, END_TO_END, quartiles
from .timeout import RepTimeout, hard_timeout
from .trace import LayerTracer
from .workloads import Outcome, Workload

__all__ = [
    "Rep", "RunResult", "run_workload", "run_traced", "environment",
    "MIN_REPS", "ReferenceSpin",
]

#: the issue's floor: a run reports nothing from fewer repetitions
MIN_REPS = 5


class _SpinItem:
    __slots__ = ("a", "b", "next")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.next: Optional["_SpinItem"] = None

    def total(self) -> int:
        return self.a + self.b


class ReferenceSpin:
    """A fixed piece of work; calling it returns the box's *slowdown*
    right now: 1.0 on the (arbitrary) reference box, 2.0 when everything
    takes twice as long.

    Three kernels, because the box slows down along more than one axis
    (README, "Noise protocol", has the measurements): each of them alone
    tracks the workloads of its own kind and misses the others.

    * compute — object allocation, method calls, dict and heap traffic
      on a cache-resident working set: the simulator's hot paths;
    * memory — pointer chasing through a shuffled ring of :data:`RING`
      objects (~11 MB, more than the last-level cache share a busy
      neighbour leaves): large peer populations;
    * numpy — temporaries, masks and ``np.add.at`` scatter over ~1 MB
      arrays: the apps' array code.

    The slowdown is the geometric mean of the three kernels' times over
    their nominal times — the usual way to fold several speed ratios
    into one index.  The nominal times only fix the scale of calibrated
    seconds; they never enter a comparison.  No I/O, nothing allocated
    outlives a call.  The ring is built once per run and adds a
    constant ~11 MB to ``peak_rss_mb``.
    """

    RING = 150_000
    COMPUTE_STEPS = 18_000
    MEMORY_STEPS = 90_000
    NUMPY_ELEMENTS = 120_000
    NUMPY_ROUNDS = 4
    #: seconds each kernel takes on the reference box
    NOMINAL_S = (0.0120, 0.0100, 0.0060)

    def __init__(self):
        ring = [_SpinItem(0, 1) for _ in range(self.RING)]
        # numpy keeps the shuffled order out of the Python heap: the ring
        # should cost what its objects cost and nothing transient on top
        rng = np.random.default_rng(20030422)
        order = rng.permutation(self.RING)
        previous = ring[int(order[-1])]
        for index in order:
            item = ring[int(index)]
            previous.next = item
            previous = item
        self._ring = ring
        self._cells = rng.integers(0, 4096, size=self.NUMPY_ELEMENTS)
        self._values = rng.random(self.NUMPY_ELEMENTS)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        table: dict[int, _SpinItem] = {}
        heap: list[tuple[int, int]] = []
        acc = 0
        for i in range(self.COMPUTE_STEPS):
            item = _SpinItem(i, acc)
            table[i & 1023] = item
            acc = (acc + item.total()) % 1_000_003
            if i & 7 == 0:
                heapq.heappush(heap, (acc, i))
            elif heap and i & 7 == 4:
                heapq.heappop(heap)
        t1 = time.perf_counter()
        node = self._ring[0]
        for _ in range(self.MEMORY_STEPS):
            node = node.next
            acc += node.b
        t2 = time.perf_counter()
        grid = np.zeros(4096)
        for _ in range(self.NUMPY_ROUNDS):
            weights = self._values * 1.5 + 0.25
            keep = weights > 0.5
            np.add.at(grid, np.where(keep, self._cells, 0), np.where(keep, weights, 0.0))
        t3 = time.perf_counter()
        compute, memory, array = self.NOMINAL_S
        return (
            (t1 - t0) / compute * (t2 - t1) / memory * (t3 - t2) / array
        ) ** (1.0 / 3.0)


def process_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc.

    ``RUSAGE_CHILDREN`` only moves when a child is reaped, so it cannot
    bracket a timed phase during which the workers stay alive.  Where
    /proc is missing the children's CPU goes unreported (0.0), never
    misreported.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def use_bytecode_cache() -> None:
    """Let worker subprocesses reuse compiled modules across reps.

    A deployed worker starts from cached bytecode; a harness that
    exports ``PYTHONDONTWRITEBYTECODE`` would instead make every spawn
    recompile the package and ``setup_s`` measure the compiler.  The
    cache lives inside the checkout (the warm-up rep fills it).
    """
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")


@dataclass
class Rep:
    """One repetition's samples.  ``*_s`` are calibrated seconds,
    ``raw_*_s`` what the clock read."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_setup_s: float = 0.0
    raw_wall_s: float = 0.0
    outcome: Optional[Outcome] = None
    error: str = ""

    @property
    def ops_ok(self) -> int:
        return self.outcome.ops_attempted - self.outcome.ops_failed if self.outcome else 0


@dataclass
class RunResult:
    workload: str
    seed: int
    reps: list[Rep] = field(default_factory=list)
    ops_attempted: int = 0
    ops_failed: int = 0
    #: reasons the run is not correct (empty == correct)
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems and self.ops_failed == 0

    def samples(self) -> dict[str, list[float]]:
        good = [r for r in self.reps if r.ops_ok > 0]
        return {
            "setup_s": [r.setup_s for r in good],
            "ops_per_s": [r.ops_ok / r.wall_s for r in good],
            "cpu_ms_per_op": [1e3 * r.cpu_s / r.ops_ok for r in good],
            "peak_rss_mb": [self.peak_rss_mb],
        }

    def summaries(self) -> dict[str, dict[str, Any]]:
        """name -> unit, clock, median, quartiles, n and every sample."""
        samples = self.samples()
        out = {}
        for metric in END_TO_END:
            values = samples[metric.name]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            out[metric.name] = {
                "unit": metric.unit, "clock": metric.clock,
                "median": med, "q1": q1, "q3": q3,
                "n": len(values), "samples": values,
            }
        return out

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        """name -> {value, unit} as the contract prints them."""
        return {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in self.summaries().items()
        }

    def detail(self) -> dict[str, Any]:
        """Everything ``gridbench run`` stores per workload."""
        first = next((r.outcome for r in self.reps if r.outcome), None)
        share = self.ops_failed / self.ops_attempted if self.ops_attempted else 1.0
        exact = {"ops_failed_share": share}
        if first is not None and first.sim_makespan_s is not None:
            exact["sim_makespan_s"] = first.sim_makespan_s
        return {
            "workload": self.workload, "seed": self.seed,
            "correct": self.correct, "problems": self.problems,
            "ops_attempted": self.ops_attempted, "ops_failed": self.ops_failed,
            "metrics": self.summaries(), "exact": exact,
            "checksum": first.checksum if first else None,
            "counters": dict(first.counters) if first else {},
            "raw": {
                "setup_s": [r.raw_setup_s for r in self.reps],
                "timed_wall_s": [r.raw_wall_s for r in self.reps],
            },
        }


def _peak_rss_mb(with_children: bool) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if with_children else 0
    return (own + kids) / 1024.0  # Linux reports KiB


def one_rep(
    workload: Workload, seed: int, ref: Any, spin: ReferenceSpin, tracer=None
) -> Rep:
    """Set up, run, tear down and check one repetition.

    Set-up and every segment of the timed phase are bracketed by
    reference spins and divided by the mean of the two slowdowns.  A
    traced rep runs its timed phase in one piece inside the tracer's
    root span, unspun.  A rep that raises or times out counts every op
    it was dealt as failed; the children are killed on every exit path.
    """
    gc.collect()
    rep = Rep()
    state = None
    try:
        with hard_timeout(workload.rep_limit_s):
            try:
                before = spin()
                t0 = time.perf_counter()
                state = workload.setup(seed)
                rep.raw_setup_s = time.perf_counter() - t0
                after = spin()
                rep.setup_s = rep.raw_setup_s * 2.0 / (before + after)
                if tracer is not None:
                    t0 = time.perf_counter()
                    with tracer.root():
                        raw = workload.timed(state)
                    rep.raw_wall_s = rep.wall_s = time.perf_counter() - t0
                else:
                    raw = _clocked_segments(workload, state, rep, spin, after)
                rep.outcome = workload.check(state, raw, ref)
            except BaseException:
                if state is not None:
                    workload.teardown(state, graceful=False)
                raise
            workload.teardown(state)
    except (RepTimeout, Exception) as exc:  # noqa: BLE001 - a failed rep is data
        rep.error = f"{type(exc).__name__}: {exc}"
        rep.outcome = None
    return rep


def _clocked_segments(
    workload: Workload, state: Any, rep: Rep, spin: ReferenceSpin, before: float
) -> Any:
    """Drive ``workload.segments``, clocking each segment between spins."""
    pids = workload.worker_pids(state)
    gen = workload.segments(state)
    while True:
        kids0 = sum(process_cpu_s(p) for p in pids)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            next(gen)
            raw, done = None, False
        except StopIteration as stop:
            raw, done = stop.value, True
        wall = time.perf_counter() - t0
        cpu = (time.process_time() - c0) + (sum(process_cpu_s(p) for p in pids) - kids0)
        after = spin()
        scale = 2.0 / (before + after)
        rep.raw_wall_s += wall
        rep.wall_s += wall * scale
        rep.cpu_s += cpu * scale
        before = after
        if done:
            return raw


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    reps: Optional[int] = None,
    warmup: bool = True,
) -> RunResult:
    """Measure one workload: ``reps`` repetitions, or as many as fit in
    ``seconds`` (never fewer than :data:`MIN_REPS`)."""
    if workload.kind == "tcp":
        use_bytecode_cache()
    result = RunResult(workload.name, seed)
    spin = ReferenceSpin()
    ref = workload.reference(seed)
    # graph workloads deal a known number of ops; the swarm's count is
    # only known from a rep that ran
    ops_per_rep = getattr(workload, "iterations", None)
    twin_placements = (
        dict(workload.sim_twin(seed).placements) if workload.kind == "tcp" else None
    )
    if warmup:
        rep = one_rep(workload, seed, ref, spin)
        if rep.outcome is None:
            result.problems.append(f"warm-up rep failed: {rep.error}")
    started = time.perf_counter()
    while True:
        done = len(result.reps)
        if reps is not None:
            if done >= reps:
                break
        elif done >= MIN_REPS and time.perf_counter() - started >= seconds:
            break
        rep = one_rep(workload, seed, ref, spin)
        result.reps.append(rep)
        if rep.outcome is None:
            # Wedged or crashed: every op it was dealt counts as failed.
            dealt = ops_per_rep or max(
                (r.outcome.ops_attempted for r in result.reps if r.outcome), default=1
            )
            result.ops_attempted += dealt
            result.ops_failed += dealt
            result.problems.append(f"rep {done}: {rep.error}")
            if sum(1 for r in result.reps if r.outcome is None) >= 2:
                break  # do not burn the budget on a broken checkout
            continue
        result.ops_attempted += rep.outcome.ops_attempted
        result.ops_failed += rep.outcome.ops_failed
        if twin_placements is not None and rep.outcome.placements != twin_placements:
            result.problems.append(
                f"rep {done}: placements {rep.outcome.placements} differ from "
                f"the sim twin's {twin_placements}"
            )
    _determinism_check(workload, result)
    result.peak_rss_mb = _peak_rss_mb(with_children=workload.kind == "tcp")
    if not any(r.ops_ok for r in result.reps):
        result.problems.append("no repetition settled a single op")
    return result


def _determinism_check(workload: Workload, result: RunResult) -> None:
    """Every rep of a sim workload must be the same run, bit for bit;
    tcp reps must at least agree on the result checksum."""
    outcomes = [r.outcome for r in result.reps if r.outcome]
    if not outcomes:
        return
    first = outcomes[0]
    for i, other in enumerate(outcomes[1:], start=1):
        if other.checksum != first.checksum:
            result.problems.append(f"rep {i}: checksum differs from rep 0")
        if workload.kind != "sim":
            continue
        if other.sim_makespan_s != first.sim_makespan_s:
            result.problems.append(
                f"rep {i}: sim_makespan_s {other.sim_makespan_s!r} != "
                f"{first.sim_makespan_s!r}"
            )
        if other.counters != first.counters:
            result.problems.append(f"rep {i}: exact counters differ from rep 0")


def run_traced(
    workload: Workload,
    seed: int,
    untraced_reps: int = 4,
    trace_path=None,
) -> tuple[RunResult, dict[str, float]]:
    """The separate traced run: per-layer numbers, never end-to-end ones.

    Runs the workload's traced twin ``untraced_reps`` times without
    (half before, half after) and once with the :class:`~gridbench.trace.LayerTracer` installed, and
    returns the run's failure accounting plus every ``<layer>.calls /
    self_s / self_share``, the exact counters, and the tracing overhead
    (traced wall against the untraced median).
    """
    twin = workload.traced_twin()
    result = RunResult(workload.name, seed)
    ref = twin.reference(seed)
    spin = ReferenceSpin()
    one_rep(twin, seed, ref, spin)  # warm-up, discarded
    # untraced reps on both sides of the traced one: a process still
    # warming up (or a box changing speed) would otherwise read as
    # negative overhead
    plain = [one_rep(twin, seed, ref, spin) for _ in range((untraced_reps + 1) // 2)]
    tracer = LayerTracer(run_id=f"{workload.name}/seed{seed}")
    with tracer:
        traced = one_rep(twin, seed, ref, spin, tracer=tracer)
    plain += [one_rep(twin, seed, ref, spin) for _ in range(untraced_reps // 2)]
    for i, rep in enumerate(plain + [traced]):
        if rep.outcome is None:
            result.problems.append(f"rep {i}: {rep.error}")
            continue
        result.ops_attempted += rep.outcome.ops_attempted
        result.ops_failed += rep.outcome.ops_failed
    result.reps = plain + [traced]
    _determinism_check(twin, result)  # tracing must not change the run
    if traced.outcome is None:
        return result, {}
    if trace_path is not None:
        tracer.write_jsonl(trace_path)

    metrics: dict[str, float] = {}
    for layer, stats in tracer.layer_stats().items():
        for key, value in stats.items():
            metrics[f"{layer}.{key}"] = value
    counters = {m.name: 0 for m in COUNTERS}
    counters.update(traced.outcome.counters)
    counters["transport.wire.frames"] = tracer.wire_frames
    counters["transport.wire.bytes"] = tracer.wire_bytes
    metrics.update(counters)
    makespan = traced.outcome.sim_makespan_s
    if makespan is None:
        # tcp: what the simulator predicts for the same graph and ops
        makespan = workload.sim_twin(seed, twin.iterations).makespan
    metrics["sim.makespan_s"] = makespan
    metrics["bench.traced_wall_s"] = traced.raw_wall_s
    walls = [r.raw_wall_s for r in plain if r.outcome is not None]
    if walls:
        base = statistics.median(walls)
        metrics["bench.trace_overhead_pct"] = 100.0 * (traced.raw_wall_s / base - 1.0)
    return result, metrics


def environment() -> dict[str, Any]:
    """Recorded in every result file."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "git_head": head,
    }
