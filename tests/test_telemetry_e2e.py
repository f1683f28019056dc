"""Telemetry passivity and the chaos health e2e: detection quality is scored.

Two contracts from the observability layer:

* **Passivity** — a telemetry-enabled run is *bit-identical* to a bare
  one: same makespan, same result digests.  Sampling reads state; it
  never schedules events or draws randomness.
* **Detection quality** — under an injected fault storm the online
  detectors must catch at least 80% of crash/straggler/saboteur faults
  (scored against the injector's ground-truth log), and a fault-free run
  must raise zero incidents.
"""

import pytest

from repro import ConsumerGrid
from repro.apps.inspiral import build_inspiral_graph
from repro.faults import Fault, FaultPlan
from repro.observe import score_against_faults
from repro.p2p import LAN_PROFILE
from repro.service.integrity import canonical_digest

WORKERS = [f"worker-{i}" for i in range(6)]


def make_grid(seed, plan=None, telemetry=False, efficiency=5e-3):
    return ConsumerGrid(
        n_workers=6,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=efficiency,
        heartbeat_interval=1.0,
        suspect_after_missed=2,
        retry_timeout=30.0,
        retry_interval=2.0,
        fault_plan=plan,
        telemetry=telemetry,
        telemetry_interval=1.0,
        health_config={"straggler_z": 1.25, "straggler_min_lag": 2.0},
    )


def inspiral():
    return build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=4)


def results_digest(report):
    return canonical_digest([canonical_digest(r) for r in report.group_results])


class TestTelemetryPassivity:
    def test_run_bit_identical_with_telemetry(self):
        plain = make_grid(700).run(inspiral(), iterations=8, run_until=100_000)
        telemetered = make_grid(700, telemetry=True).run(
            inspiral(), iterations=8, run_until=100_000
        )
        assert telemetered.makespan == plain.makespan  # exact, not approx
        assert results_digest(telemetered) == results_digest(plain)
        assert plain.health == {}
        # ... and the telemetered run actually sampled something.
        assert telemetered.health["sampler"]["samples"] > 0
        assert telemetered.health["incidents"] == 0

    def test_telemetry_out_requires_telemetry(self, tmp_path):
        grid = make_grid(701)
        with pytest.raises(ValueError):
            grid.run(
                inspiral(), iterations=4,
                telemetry_out=str(tmp_path / "t.jsonl"),
            )

    def test_telemetry_out_writes_rows(self, tmp_path):
        import json

        grid = make_grid(702, telemetry=True)
        path = tmp_path / "telemetry.jsonl"
        grid.run(inspiral(), iterations=6, run_until=100_000,
                 telemetry_out=str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows
        assert {"t", "sim", "net", "workers", "detector", "reputation"} <= set(
            rows[0]
        )


def storm_plan():
    """Five ground-truth faults spanning every detector family.

    Crashes restart and the slowdown heals, so the run always finishes;
    the compute faults are permanent (quarantine contains them).
    """
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


class TestChaosHealthE2E:
    def test_storm_recall_at_least_80_percent(self):
        grid = make_grid(903, plan=storm_plan(), telemetry=True)
        report = grid.run(
            inspiral(), iterations=18, run_until=200_000,
            verification="replicate-3",
        )
        assert grid.fault_injector.faults_injected >= 5
        score = score_against_faults(
            grid.health.incidents, grid.fault_injector.log
        )
        assert score["faults"] == 5
        assert score["recall"] >= 0.8, score
        # the report surfaces the same incidents the monitor saw
        assert report.health["incidents"] == len(grid.health.incidents)
        assert report.health["by_severity"].get("critical", 0) >= 1

    def test_clean_run_raises_zero_incidents(self):
        grid = make_grid(903, telemetry=True)
        report = grid.run(inspiral(), iterations=18, run_until=200_000,
                          verification="replicate-3")
        assert grid.health.incidents == []
        assert report.health["incidents"] == 0
        score = score_against_faults(grid.health.incidents, [])
        assert score["recall"] == 1.0 and score["precision"] == 1.0
