"""Smoke of all six workloads at --quick sizes, oracle and hygiene."""

import json
import os
import subprocess
import sys
import time

import pytest

from gridbench import ROOT
from gridbench.harness import run_workload
from gridbench.workloads import (
    WORKLOADS, PipelineWorkload, SwarmWorkload, TcpPipelineWorkload,
    _failed_ops, group_oracle, make_workload,
)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_smoke(name):
    workload = make_workload(name, quick=True)
    result = run_workload(workload, seed=7, seconds=0.0, reps=1)
    assert result.correct, result.problems
    assert result.ops_attempted > 0 and result.ops_failed == 0
    metrics = result.end_to_end()
    assert set(metrics) == {"setup_s", "ops_per_s", "cpu_ms_per_op", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    detail = result.detail()
    assert detail["exact"]["ops_failed_share"] == 0.0
    assert ("sim_makespan_s" in detail["exact"]) == name.startswith("sim_")
    assert no_child_left()


def test_measure_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "-m", "gridbench", "measure", "--workload", "sim_pipeline",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--quick", "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    for entry in payload["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_same_seed_same_inputs_other_seed_other_inputs():
    w = PipelineWorkload(quick=True)
    assert w.reference(5) == w.reference(5)
    assert w.reference(5) != w.reference(6)


def test_sim_reps_are_bit_identical_and_a_drift_is_a_failed_run():
    w = SwarmWorkload(quick=True)
    result = run_workload(w, seed=2, seconds=0.0, reps=3, warmup=False)
    assert result.correct
    first, last = result.reps[0].outcome, result.reps[-1].outcome
    assert (first.checksum, first.sim_makespan_s, first.counters) == (
        last.checksum, last.sim_makespan_s, last.counters)
    # a rep that disagrees is reported, not averaged away
    from gridbench.harness import _determinism_check
    last.counters["simkernel.events"] += 1
    _determinism_check(w, result)
    assert not result.correct


def test_oracle_flags_a_perturbed_result():
    w = PipelineWorkload(quick=True)
    ref = w.reference(4)
    state = w.setup(4)
    report = w.timed(state)
    assert w.check(state, report, ref).ops_failed == 0
    # one sample of one iteration's output nudged by one ulp-ish amount
    report.group_results[3][0].data[0] += 1e-9
    assert w.check(state, report, ref).ops_failed == 1
    # a missing op is a failed op
    assert _failed_ops(report.group_results[:-2], ref) == 3


def test_oracle_matches_group_results_of_a_farm():
    w = make_workload("sim_galaxy_farm", quick=True)
    ref = group_oracle(w.build_graph(1), w.iterations)
    state = w.setup(1)
    assert w.check(state, w.timed(state), ref).ops_failed == 0


def test_swarm_counts_a_lost_heartbeat():
    w = SwarmWorkload(quick=True)
    ref = w.reference(1)
    state = w.setup(1)
    cut = state.peers[17].peer_id  # its traffic in and out is dropped
    state.net.partition([cut], [p.peer_id for p in state.peers if p.peer_id != cut])
    outcome = w.check(state, w.timed(state), ref)
    assert outcome.ops_failed > 0


def test_a_wedged_tcp_rep_fails_all_its_ops_and_leaves_no_child():
    w = TcpPipelineWorkload(quick=True)
    w.rep_limit_s = 3.0  # the alarm lands in the timed phase, or in a slow set-up

    def wedged(state):
        time.sleep(60.0)
        yield

    w.segments = wedged
    started = time.monotonic()
    result = run_workload(w, seed=1, seconds=0.0, reps=1, warmup=False)
    assert time.monotonic() - started < 40.0
    assert not result.correct
    assert result.ops_failed == result.ops_attempted == w.iterations
    assert no_child_left()


def test_tcp_reps_use_fresh_ports_and_match_the_sim_twin():
    w = TcpPipelineWorkload(quick=True)
    ref = w.reference(9)
    placements = dict(w.sim_twin(9).placements)
    ports = set()
    for _ in range(2):
        state = w.setup(9)
        ports.add(state.grid.transport.port)
        try:
            outcome = w.check(state, w.timed(state), ref)
        finally:
            w.teardown(state)
        assert outcome.ops_failed == 0 and outcome.placements == placements
    assert len(ports) == 2
    assert no_child_left()
