"""Command line: ``python -m gridbench {measure,run,ladder,compare,spec}``.

``measure`` is the contract the driver runs (one workload, one process,
one JSON object on the last line).  ``run`` is the human front door: it
measures each workload in a fresh subprocess through ``measure`` and
prints/stores every metric with unit, median, quartiles and n.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from . import OUT_DIR, ROOT

__all__ = ["main"]

#: ``run_seconds`` of BENCHMARK.json: the measuring budget of one run
RUN_SECONDS = 12
#: share of the full ladder load a traced ``measure`` run pushes through
#: each rung, so 4 + 22 x 6 driver runs fit the time cap
MEASURE_LADDER_SCALE = 0.1


def cmd_measure(args) -> int:
    from .harness import run_traced, run_workload
    from .metrics import per_layer_metrics
    from .workloads import make_workload

    workload = make_workload(args.workload, quick=args.quick)
    if args.trace == 0:
        result = run_workload(workload, args.seed, args.seconds, reps=args.reps)
        metrics = result.end_to_end()
        detail = result.detail()
    else:
        from .ladder import run_ladder

        trace_path = None
        if args.trace_dir:
            Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
            trace_path = Path(args.trace_dir) / f"trace_{workload.name}.jsonl"
        # the ladder first: the traced run leaves a heap of spans and
        # peers behind, and full collections over it inflate the rungs
        values = run_ladder(
            scale=0.02 if args.quick else MEASURE_LADDER_SCALE, repeats=1
        )
        result, traced = run_traced(workload, args.seed, trace_path=trace_path)
        values.update(traced)
        metrics = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in per_layer_metrics() if m.name in values
        }
        detail = {
            "workload": workload.name, "seed": args.seed,
            "correct": result.correct, "problems": result.problems,
            "ops_attempted": result.ops_attempted, "ops_failed": result.ops_failed,
            "per_layer": {name: entry["value"] for name, entry in metrics.items()},
            "trace_file": str(trace_path) if trace_path else None,
        }
    for problem in result.problems:
        print(f"gridbench: {workload.name}: {problem}", file=sys.stderr)
    payload = {
        "correct": result.correct,
        "attempted": max(result.ops_attempted, 1),
        "failed": result.ops_failed,
        "metrics": metrics,
    }
    if args.detail:
        payload["detail"] = detail
    # the contract: one JSON object as the last line of stdout
    print(json.dumps(payload), flush=True)
    # A printed result carries its own verdict (`correct`, `failed`);
    # the exit code only says whether there is a result to read.
    return 0


def _measure_in_subprocess(extra: list[str]) -> Optional[dict[str, Any]]:
    """One workload, one fresh interpreter; returns its detail record."""
    proc = subprocess.run(
        [sys.executable, "-m", "gridbench", "measure", "--detail", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])["detail"]
    except (ValueError, KeyError):
        return None


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_run(args) -> int:
    from .harness import environment
    from .workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    record: dict[str, Any] = {
        "schema": 1, "seed": args.seed, "reps": args.reps,
        "traced": args.traced, "environment": environment(), "workloads": {},
    }
    failed = False
    for name in names:
        extra = ["--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)]
        if args.reps is not None:
            extra += ["--reps", str(args.reps)]
        if args.quick:
            extra.append("--quick")
        detail = _measure_in_subprocess(extra + ["--trace", "0"])
        if detail is None:
            print(f"{name}: the run printed no result")
            failed = True
            continue
        print(f"{name}  seed={args.seed}  correct={detail['correct']}  "
              f"ops {detail['ops_attempted'] - detail['ops_failed']}"
              f"/{detail['ops_attempted']}")
        for metric, m in detail["metrics"].items():
            print(f"  {metric:<18} median {_fmt(m['median']):>12} {m['unit']:<5} "
                  f"q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n={m['n']}  "
                  f"[{m['clock']} clock]")
        for metric, value in detail["exact"].items():
            print(f"  {metric:<18} {value!r:>12}  (exact)")
        if args.traced:
            traced = _measure_in_subprocess(
                extra + ["--trace", "1", "--trace-dir", args.trace_dir]
            )
            if traced is None:
                print(f"{name}: the traced run printed no result")
                failed = True
            else:
                detail["traced"] = traced
                failed |= not traced["correct"]
                for metric, value in traced["per_layer"].items():
                    print(f"    {metric:<36} {_fmt(value):>12}")
        failed |= not detail["correct"]
        record["workloads"][name] = detail
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"[saved to {args.out}]")
    return 1 if failed else 0


def cmd_ladder(args) -> int:
    from .ladder import run_ladder
    from .metrics import LADDER

    values = run_ladder(scale=args.scale, repeats=args.repeats)
    for metric in LADDER:
        print(f"{metric.name:<40} {_fmt(values[metric.name]):>12} {metric.unit:<5} "
              f"({metric.better} is better)  {metric.doc}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    from .compare import compare_files

    return compare_files(args.a, args.b)


def cmd_spec(args) -> int:
    from .metrics import benchmark_spec
    from .workloads import WORKLOADS

    spec = benchmark_spec(
        [(name, cls.why) for name, cls in WORKLOADS.items()], RUN_SECONDS
    )
    text = json.dumps(spec, indent=1) + "\n"
    path = ROOT / "BENCHMARK.json"
    if args.write:
        path.write_text(text)
        return 0
    if not path.exists() or path.read_text() != text:
        print("BENCHMARK.json is out of date; run `python -m gridbench spec --write`")
        return 1
    print("BENCHMARK.json matches gridbench.metrics")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m gridbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one workload, one JSON line (the driver's entry)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=None,
                   help="exactly this many repetitions instead of a time budget")
    p.add_argument("--quick", action="store_true", help="tiny sizes (tests)")
    p.add_argument("--detail", action="store_true",
                   help="add samples, quartiles and exact metrics to the JSON")
    p.add_argument("--trace-dir", default=None,
                   help="write the traced run's spans here as JSONL")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("run", help="measure workloads, each in a fresh subprocess")
    p.add_argument("--workload", action="append", help="repeatable; default all six")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per workload (default: as many as fit "
                        "--seconds, never fewer than 5)")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--traced", action="store_true",
                   help="also make the separate traced run (per-layer numbers)")
    p.add_argument("--trace-dir", default=str(OUT_DIR))
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default=None, help="write the result file here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ladder", help="the layer ladder at full load")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ladder)

    p = sub.add_parser("compare", help="apply BENCHMARK.json's bounds to two result files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("spec", help="check (or --write) BENCHMARK.json")
    p.add_argument("--write", action="store_true")
    p.set_defaults(fn=cmd_spec)

    args = parser.parse_args(argv)
    return args.fn(args)
