#!/usr/bin/env python
"""Chaos health gate: online detectors must catch an injected fault storm.

Runs the inspiral workload twice on identically-configured telemetered
grids — once under a five-fault storm (two crashes, a straggler
slowdown, a saboteur, a lying-heartbeat saboteur), once fault-free —
and scores the :class:`~repro.observe.HealthMonitor`'s incidents against
the :class:`~repro.faults.FaultInjector`'s ground-truth log:

* **Recall** over the injected faults must be at least ``RECALL_FLOOR``
  (0.8): at least four of the five faults must surface as incidents of a
  matching kind on the right peer at or after the onset.
* The **clean** run must raise *zero* incidents — the detectors are
  transition-triggered and a healthy fleet never transitions into a bad
  state.

The full health report (sampler summary, incident list, score) is
written as JSON — CI uploads it as an artifact so detection quality is
reviewable per commit.

Usage::

    PYTHONPATH=src python tools/chaos_health.py [--out HEALTH_chaos.json]

Exit status 0 = gate passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ConsumerGrid  # noqa: E402
from repro.analysis import HOSTILE_LAN  # noqa: E402
from repro.apps.inspiral import build_inspiral_graph  # noqa: E402
from repro.faults import Fault, FaultPlan  # noqa: E402
from repro.observe import score_against_faults  # noqa: E402

RECALL_FLOOR = 0.8
SEED = 903
ITERATIONS = 18


def make_grid(plan=None) -> ConsumerGrid:
    return ConsumerGrid(
        HOSTILE_LAN,
        seed=SEED,
        worker_efficiency=5e-3,
        fault_plan=plan,
        telemetry=True,
        telemetry_interval=1.0,
        straggler_z=1.25,
    )


def storm_plan() -> FaultPlan:
    """Five faults spanning every detector family (crashes restart)."""
    plan = FaultPlan(name="health-storm")
    plan.add(Fault(kind="crash", at=8.0, duration=30.0, targets=("worker-1",)))
    plan.add(Fault(kind="crash", at=20.0, duration=30.0, targets=("worker-5",)))
    plan.add(Fault(kind="slowdown", at=6.0, duration=80.0, factor=0.05,
                   targets=("worker-2",)))
    plan.add(Fault(kind="saboteur", at=5.0, targets=("worker-3",),
                   fraction=1.0, seed=11))
    plan.add(Fault(kind="liar_heartbeat", at=5.0, targets=("worker-4",),
                   fraction=1.0, seed=12))
    return plan


def run(plan=None) -> tuple[ConsumerGrid, dict]:
    grid = make_grid(plan)
    report = grid.run(
        build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=4),
        iterations=ITERATIONS,
        run_until=200_000,
        verification="replicate-3",
    )
    return grid, report.health


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the full health report JSON here")
    args = parser.parse_args(argv)

    print("chaos health gate (inspiral, 6 workers, replicate-3)")
    chaotic, chaotic_health = run(storm_plan())
    score = score_against_faults(
        chaotic.health.incidents, chaotic.fault_injector.log
    )
    clean, clean_health = run(plan=None)

    failures: list[str] = []
    if score["recall"] < RECALL_FLOOR:
        failures.append(
            f"recall {score['recall']:.2f} below floor {RECALL_FLOOR:.2f}: "
            f"missed {score['missed']}"
        )
    if clean_health["incidents"] != 0:
        failures.append(
            f"clean run raised {clean_health['incidents']} incident(s): "
            f"{clean_health['by_kind']}"
        )

    print(
        f"  storm: {score['faults']} faults injected, {score['detected']} "
        f"detected (recall {score['recall']:.2f}, precision "
        f"{score['precision']:.2f}), {score['incidents']} incidents"
    )
    print(f"  clean: {clean_health['incidents']} incidents "
          f"({clean_health['sampler']['samples']} samples)")

    if args.out:
        payload = {
            "storm": {
                "health": chaotic_health,
                "score": score,
                "incidents": [i.as_dict() for i in chaotic.health.ranked()],
            },
            "clean": {"health": clean_health},
            "recall_floor": RECALL_FLOOR,
            "passed": not failures,
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n"
        )
        print(f"  report -> {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos health gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
