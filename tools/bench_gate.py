#!/usr/bin/env python
"""Benchmark regression gate: fresh BENCH JSON vs the committed baseline.

Each ``benchmarks/bench_e*.py`` run rewrites its
``benchmarks/results/BENCH_<scenario>.json``.  This gate re-reads the
*committed* version of the same file (``git show HEAD:<path>``) and
compares the deterministic trace analytics:

* ``critical_path_s`` — the gated quantity.  A fresh value more than
  ``--tolerance`` percent *above* the baseline fails the gate (faster is
  never a failure, only noted).
* ``sim_time_s`` / ``slack_s`` — drift is reported but does not fail the
  gate on its own; these move together with the critical path.
* ``wall_clock_s`` is explicitly ignored: it is the one field that is
  not a pure function of the seed, so it cannot be gated.

Scenarios whose baseline or fresh file carries no trace analytics
(``critical_path_s: null`` — analytic benches) are skipped.

Wall clock is measured by gridbench (calibrated medians), not here.

Usage::

    python tools/bench_gate.py                       # gate all fresh files
    python tools/bench_gate.py e10_policies e13_dispatch
    python tools/bench_gate.py --tolerance 25

Exit status 0 = gate passed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"


def committed_payload(scenario: str) -> dict | None:
    """The BENCH payload as committed at HEAD, or None if absent."""
    rel = f"benchmarks/results/BENCH_{scenario}.json"
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel}"],
        cwd=REPO, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def fresh_payload(scenario: str) -> dict | None:
    path = RESULTS / f"BENCH_{scenario}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def gate_scenario(scenario: str, tolerance_pct: float) -> tuple[bool, str]:
    """Returns (passed, message) for one scenario."""
    fresh = fresh_payload(scenario)
    if fresh is None:
        return False, f"{scenario}: no fresh BENCH_{scenario}.json (bench not run?)"
    base = committed_payload(scenario)
    if base is None:
        return True, f"{scenario}: no committed baseline yet — skipped"
    base_cp = base.get("critical_path_s")
    fresh_cp = fresh.get("critical_path_s")
    if base_cp is None or fresh_cp is None:
        return True, f"{scenario}: no trace analytics — skipped"
    if base_cp <= 0:
        return True, f"{scenario}: degenerate baseline critical path — skipped"
    delta_pct = 100.0 * (fresh_cp - base_cp) / base_cp
    detail = (
        f"{scenario}: critical path {base_cp:.4f}s -> {fresh_cp:.4f}s "
        f"({delta_pct:+.2f}%, budget +{tolerance_pct:.0f}%)"
    )
    if delta_pct > tolerance_pct:
        return False, "REGRESSION " + detail
    return True, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: every fresh BENCH_*.json)")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="max allowed critical-path increase in %% "
                             "(default 25)")
    args = parser.parse_args(argv)

    scenarios = args.scenarios or sorted(
        p.stem[len("BENCH_"):] for p in RESULTS.glob("BENCH_*.json")
    )
    if not scenarios:
        print("bench gate: nothing to check (no BENCH_*.json files)",
              file=sys.stderr)
        return 1

    failures = 0
    for scenario in scenarios:
        passed, message = gate_scenario(scenario, args.tolerance)
        print(("  ok   " if passed else "  FAIL ") + message)
        failures += 0 if passed else 1
    if failures:
        print(f"bench gate FAILED: {failures} scenario(s) over budget",
              file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
