"""Result-integrity subsystem: saboteurs, voting, spot-checks, reputation.

The hostile chaos level keeps every peer alive and chatty — they just
lie.  These tests pin the whole defence chain: compute-fault models
tamper deterministically, replication voting restores bit-identical
results (while the unverified run provably corrupts), spot-checks repair
what they catch, convictions drain detector trust, and the
``reputation_weighted`` dealer steers work away from convicted peers.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro import ConsumerGrid, TaskGraph, chaos
from repro.apps.database import TableData, build_database_graph, register_table
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.apps.inspiral import build_inspiral_graph
from repro.core.types import SampleSet
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.faults.compute import ComputeFaultModel, ComputeFaultWindow
from repro.observe import NullTracer
from repro.p2p import LAN_PROFILE
from repro.service import SchedulingError
from repro.service import detector as detector_module, integrity
from repro.service.detector import HeartbeatFailureDetector
from repro.service.integrity import (
    ReplicationVoting,
    ReputationLedger,
    SpotCheck,
    canonical_digest,
    make_verifier,
)
from repro.service.placement import ReputationWeighted, dispatch_policy_names
from repro.transport.wire import WireError, result_checksum

WORKERS = [f"worker-{i}" for i in range(6)]


def make_grid(seed, plan=None, efficiency=1e-5, n_workers=6):
    return ConsumerGrid(
        n_workers=n_workers,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=efficiency,
        heartbeat_interval=1.0,
        suspect_after_missed=2,
        retry_timeout=30.0,
        retry_interval=2.0,
        fault_plan=plan,
    )


def hostile_plan(seed=5):
    # The window covers the whole run: saboteurs never go honest.
    return chaos("hostile", seed=seed, workers=WORKERS,
                 start=5.0, horizon=100_000.0)


def results_digest(report):
    return result_checksum(report.group_results)


def sabotage(grid, targets, fraction=1.0, seed=11):
    """Install always-on saboteurs on ``targets``, effective immediately.

    Plans scheduled through the ConsumerGrid constructor anchor at
    absolute times; for the short farm runs here we instead anchor at
    whatever time assembly settled on, so the window is guaranteed to
    cover the whole run.
    """
    plan = FaultPlan(name="saboteurs")
    for target in targets:
        plan.add(Fault(kind="saboteur", at=grid.sim.now, duration=100_000.0,
                       targets=(target,), fraction=fraction, seed=seed))
    grid.fault_injector = FaultInjector(
        grid.sim, grid.transport, plan, peers=grid.worker_peers
    ).schedule()
    return grid


# -- canonical digests -------------------------------------------------------------


class TestCanonicalDigest:
    def test_equal_payloads_equal_digests(self):
        a = [np.arange(12.0).reshape(3, 4), [1, 2.5, "x"], {"k": 3}]
        b = [np.arange(12.0).reshape(3, 4), [1, 2.5, "x"], {"k": 3}]
        assert canonical_digest(a) == canonical_digest(b)

    def test_single_element_perturbation_changes_digest(self):
        base = np.arange(12.0).reshape(3, 4)
        tweaked = base.copy()
        tweaked[1, 2] += 1e-9
        assert canonical_digest([base]) != canonical_digest([tweaked])

    def test_shape_and_dtype_matter(self):
        a = np.zeros(4, dtype=np.float64)
        assert canonical_digest([a]) != canonical_digest([a.reshape(2, 2)])
        assert canonical_digest([a]) != canonical_digest(
            [np.zeros(4, dtype=np.float32)]
        )

    #: the canonical form is the wire's: ``TestGoldenBytes`` in
    #: test_transport_wire.py pins the encoding of 0-d, strided and
    #: Fortran-order arrays and of a ``SampleSet`` byte for byte, and a
    #: change there must bump ``WIRE_VERSION``
    PAYLOADS = {
        "float64-1d": lambda: np.arange(16, dtype=np.float64) * 0.5,
        "int32-strided-2d":
            lambda: np.arange(24, dtype=np.int32).reshape(4, 6)[::2, 1::2],
        "float64-0d": lambda: np.array(3.25),
        "sampleset": lambda: SampleSet(
            data=np.linspace(0.0, 1.0, 64), sampling_rate=1024.0
        ),
    }

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_digest_is_the_wire_checksum(self, name):
        outs = (self.PAYLOADS[name](),)
        assert canonical_digest(outs) == result_checksum(list(outs))

    def test_object_payloads_hash_their_attributes(self):
        assert canonical_digest([Payload([1, 2])]) == canonical_digest(
            [Payload([1, 2])]
        )
        assert canonical_digest([Payload([1, 2])]) != canonical_digest(
            [Payload([1, 3])]
        )

    def test_tampered_slotted_payload_changes_digest(self):
        # numpy abbreviates a 5 000-element repr, so a repr-based hash
        # would vote this tampered answer equal to the honest one
        honest = SlottedPayload(np.arange(5000, dtype=np.float64))
        tampered = SlottedPayload(honest.values.copy())
        tampered.values[2500] = 1e9
        assert canonical_digest([honest]) != canonical_digest([tampered])

    def test_payload_the_wire_refuses_cannot_be_digested(self):
        with pytest.raises(WireError):
            canonical_digest([SlotsOnly(np.arange(4.0))])


class Payload:
    def __init__(self, rows):
        self.rows = rows


@dataclass(slots=True)
class SlottedPayload:
    values: np.ndarray


class SlotsOnly:
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


# -- compute-fault models ----------------------------------------------------------


class TestComputeFaultModel:
    def _model(self, kind, fraction=1.0, seed=7):
        model = ComputeFaultModel(peer_id="w-0")
        model.add_window(
            ComputeFaultWindow(kind=kind, seed=seed, fraction=fraction)
        )
        return model

    def test_saboteur_is_consistent_per_iteration(self):
        outputs = [np.arange(8.0)]
        first, kind1 = self._model("saboteur").apply("d", 3, outputs, now=1.0)
        second, kind2 = self._model("saboteur").apply("d", 3, outputs, now=9.0)
        assert kind1 == kind2 == "saboteur"
        # Same (seed, peer, iteration) → the exact same wrong answer.
        assert canonical_digest(first) == canonical_digest(second)
        assert canonical_digest(first) != canonical_digest(outputs)

    def test_flaky_is_transient_across_executions(self):
        model = self._model("flaky_compute")
        outputs = [np.arange(8.0)]
        first, _ = model.apply("d", 3, outputs, now=1.0)
        second, _ = model.apply("d", 3, outputs, now=2.0)  # re-execution
        assert canonical_digest(first) != canonical_digest(second)

    def test_originals_never_mutated(self):
        outputs = [np.arange(8.0)]
        before = outputs[0].copy()
        self._model("saboteur").apply("d", 0, outputs, now=1.0)
        np.testing.assert_array_equal(outputs[0], before)

    def test_window_bounds_respected(self):
        model = ComputeFaultModel(peer_id="w-0")
        model.add_window(ComputeFaultWindow(
            kind="saboteur", seed=1, fraction=1.0, since=10.0, until=20.0
        ))
        _, kind = model.apply("d", 0, [1.0], now=5.0)
        assert kind == ""
        _, kind = model.apply("d", 0, [1.0], now=15.0)
        assert kind == "saboteur"
        _, kind = model.apply("d", 0, [1.0], now=25.0)
        assert kind == ""

    def test_tamper_counts_surface_in_summary(self):
        model = self._model("saboteur")
        model.apply("d", 0, [1.0], now=1.0)
        summary = model.summary()
        assert summary["executions"] == 1
        assert summary["tampered"] == {"saboteur": 1}


# -- verifier factory --------------------------------------------------------------


class TestMakeVerifier:
    def test_none_specs(self):
        assert make_verifier(None) is None
        assert make_verifier("") is None
        assert make_verifier("none") is None

    def test_replicate_and_spot_parse(self):
        v = make_verifier("replicate-3")
        assert isinstance(v, ReplicationVoting)
        assert v.k == 3 and v.quorum == 2
        s = make_verifier("spot-0.25")
        assert isinstance(s, SpotCheck)
        assert s.fraction == 0.25
        # Bare names take the documented defaults.
        assert make_verifier("replicate").k == 3
        assert make_verifier("spot").fraction == 0.1

    @pytest.mark.parametrize("bad", [
        "vote-3", "replicate-x", "replicate-1", "spot-0", "spot-1.5", "bogus",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SchedulingError):
            make_verifier(bad)

    def test_run_rejects_bad_spec_before_starting(self):
        g = TaskGraph("t")
        g.add_task("Wave", "Wave", frequency=32.0)
        g.add_task("FFT", "FFT")
        g.connect("Wave", 0, "FFT", 0)
        g.group_tasks("G", ["FFT"], policy="parallel")
        grid = make_grid(1)
        with pytest.raises(SchedulingError):
            grid.run(g, iterations=2, verification="majority-5")


# -- reputation --------------------------------------------------------------------


class _Ctx:
    """Minimal DispatchContext stand-in for ledger unit tests."""

    def __init__(self, sim_now=10.0):
        class _Sim:
            now = sim_now
            tracer = NullTracer()

        self.sim = _Sim()

        class _Peer:
            peer_id = "controller"

        self.peer = _Peer()
        self.notices = []

    def notify(self, kind, **data):
        self.notices.append((kind, data))


class TestReputationLedger:
    def test_conviction_drains_score_with_reason(self):
        detector = HeartbeatFailureDetector(heartbeat_interval=1.0)
        ledger = ReputationLedger(detector)
        ctx = _Ctx()
        ledger.convict(ctx, "w-1", 0, "outvoted")
        ledger.convict(ctx, "w-1", 1, "outvoted")
        rec = detector.workers["w-1"]
        assert rec.score == 0.0
        assert rec.quarantined_until > 10.0
        assert rec.quarantine_reason == "integrity:outvoted"
        snap = detector.snapshot(now=10.0)
        assert "w-1" in snap["quarantine_deadlines"]
        assert snap["quarantine_reasons"]["w-1"] == "integrity:outvoted"

    def test_conviction_idempotent_per_iteration(self):
        detector = HeartbeatFailureDetector(heartbeat_interval=1.0)
        ledger = ReputationLedger(detector)
        ctx = _Ctx()
        for _ in range(5):  # cached re-ships of the same wrong answer
            ledger.convict(ctx, "w-1", 0, "outvoted")
        assert ledger.convictions["w-1"] == 1
        assert detector.workers["w-1"].score == 0.5

    def test_blacklist_reason_recorded(self, monkeypatch):
        monkeypatch.setattr(detector_module, "QUARANTINE_WINDOW", 1.0)
        monkeypatch.setattr(detector_module, "BLACKLIST_AFTER", 2)
        monkeypatch.setattr(integrity, "CONVICTION_PENALTY", 1.0)
        detector = HeartbeatFailureDetector(heartbeat_interval=1.0)
        ledger = ReputationLedger(detector)
        ledger.convict(_Ctx(sim_now=10.0), "w-2", 0, "spot-check")
        ledger.convict(_Ctx(sim_now=20.0), "w-2", 1, "spot-check")
        rec = detector.workers["w-2"]
        assert rec.blacklisted
        snap = detector.snapshot(now=20.0)
        assert snap["blacklist_reasons"]["w-2"].startswith("integrity:spot-check")


class TestReputationWeightedPolicy:
    def test_registered(self):
        assert "reputation_weighted" in dispatch_policy_names()

    def test_biases_away_from_convicted_peers(self):
        detector = HeartbeatFailureDetector(heartbeat_interval=1.0)
        detector.watch("w-0", 0.0)
        detector.watch("w-1", 0.0)
        detector.workers["w-1"].score = 0.1  # convicted repeatedly

        class _Sim:
            now = 0.0

        policy = ReputationWeighted()
        policy.bind_reputation(detector, ["w-0", "w-1"], _Sim())
        policy.setup([1.0, 1.0])
        picks = [policy.choose(i) for i in range(10)]
        # Equal speeds, but w-1's trust is 0.1: w-0 soaks up most work.
        assert picks.count(0) > picks.count(1)

    def test_excludes_quarantined_until_none_left(self):
        detector = HeartbeatFailureDetector(heartbeat_interval=1.0)
        detector.watch("w-0", 0.0)
        detector.watch("w-1", 0.0)
        detector.workers["w-0"].quarantined_until = 100.0

        class _Sim:
            now = 0.0

        policy = ReputationWeighted()
        policy.bind_reputation(detector, ["w-0", "w-1"], _Sim())
        policy.setup([1.0, 1.0])
        assert all(policy.choose(i) == 1 for i in range(4))
        # Quarantine everyone → fall back to dealing anyway (liveness).
        detector.workers["w-1"].quarantined_until = 100.0
        assert policy.choose(99) in (0, 1)

    def test_unbound_degrades_to_weighted(self):
        policy = ReputationWeighted()
        policy.setup([1.0, 4.0])
        picks = [policy.choose(i) for i in range(10)]
        assert picks.count(1) > picks.count(0)


# -- end-to-end: the acceptance experiment ----------------------------------------


def run_triplet(build_graph, iterations, efficiency, seed, plan_seed=5,
                verification="replicate-3", dispatch="round_robin"):
    """Clean baseline, unverified hostile, verified hostile."""
    clean = make_grid(seed, efficiency=efficiency).run(
        build_graph(), iterations=iterations, run_until=200_000
    )
    unverified = make_grid(seed, plan=hostile_plan(plan_seed),
                           efficiency=efficiency).run(
        build_graph(), iterations=iterations, run_until=200_000
    )
    verified = make_grid(seed, plan=hostile_plan(plan_seed),
                         efficiency=efficiency).run(
        build_graph(), iterations=iterations, run_until=200_000,
        verification=verification, dispatch=dispatch,
    )
    return clean, unverified, verified


def assert_hostility_was_real(clean, unverified, verified):
    """Saboteurs corrupted the trusting run; voting restored the truth."""
    assert results_digest(unverified) != results_digest(clean)
    assert results_digest(verified) == results_digest(clean)
    integ = verified.integrity
    assert integ["replicas_issued"] > 0
    assert integ["votes"] > integ["quorum_accepts"]
    assert integ["overturned"] > 0
    assert integ["convicted"]  # someone got caught
    assert verified.recovery["quarantine_reasons"]  # and paid for it
    # The clean and unverified runs never verified anything.
    assert clean.integrity == {} and unverified.integrity == {}


class TestGalaxyUnderHostileChaos:
    def test_replicate3_restores_bit_identical_frames(self):
        generate_snapshots(n_frames=12, n_particles=300, seed=3,
                           register_as="hostile-gal")
        clean, unverified, verified = run_triplet(
            lambda: build_galaxy_graph("hostile-gal", resolution=16),
            iterations=12, efficiency=1e-5, seed=900,
        )
        for a, b in zip(clean.group_results, verified.group_results):
            np.testing.assert_array_equal(a[0].pixels, b[0].pixels)
        assert_hostility_was_real(clean, unverified, verified)


class TestInspiralUnderHostileChaos:
    def test_replicate3_restores_identical_detections(self):
        clean, unverified, verified = run_triplet(
            lambda: build_inspiral_graph(
                n_templates=8, chunk_seconds=4.0, seed=4
            ),
            iterations=10, efficiency=5e-3, seed=901,
        )
        for a, b in zip(clean.group_results, verified.group_results):
            assert a[0].rows == b[0].rows
        assert_hostility_was_real(clean, unverified, verified)


class TestDatabaseUnderHostileChaos:
    def test_replicate3_restores_identical_rows(self):
        rows = [(i, float((i * 37) % 11), f"name{i%5}") for i in range(512)]
        register_table("hostile-db", TableData(["id", "val", "name"], rows))
        clean, unverified, verified = run_triplet(
            lambda: build_database_graph(
                "hostile-db", chunk_rows=64,
                where=[["val", ">", 2.0]], sort_column="val",
            ),
            iterations=8, efficiency=1e-6, seed=902,
        )
        for a, b in zip(clean.group_results, verified.group_results):
            assert a[0].rows == b[0].rows
        assert_hostility_was_real(clean, unverified, verified)


# -- per-policy coverage -----------------------------------------------------------


def farm_graph(policy="parallel"):
    g = TaskGraph("farm")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy=policy)
    return g


def chain_graph():
    g = TaskGraph("chain")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("Gain", "Gain", factor=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gain"), ("Gain", "FFT"), ("FFT", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("Chain", ["Gain", "FFT"], policy="p2p")
    return g


class TestChunkedFarmVoting:
    def test_batched_replication_restores_results(self):
        targets = ["worker-1", "worker-2"]
        clean = make_grid(40).run(farm_graph("chunked"), iterations=12,
                                  run_until=200_000)
        verified = sabotage(make_grid(40), targets).run(
            farm_graph("chunked"), iterations=12, run_until=200_000,
            verification="replicate-3",
        )
        assert results_digest(verified) == results_digest(clean)
        assert verified.integrity["replicas_issued"] > 0
        unverified = sabotage(make_grid(40), targets).run(
            farm_graph("chunked"), iterations=12, run_until=200_000
        )
        assert results_digest(unverified) != results_digest(clean)


class TestPipelineSpotChecks:
    def test_spot_one_repairs_every_iteration(self):
        # Full quiz coverage: the controller recomputes the whole chain
        # locally and overrides every lie at the stage boundary.
        clean = make_grid(41).run(chain_graph(), iterations=8,
                                  run_until=200_000)
        verified = sabotage(make_grid(41), ["worker-0", "worker-1"]).run(
            chain_graph(), iterations=8, run_until=200_000,
            verification="spot-1.0",
        )
        assert results_digest(verified) == results_digest(clean)
        assert verified.integrity["spot_checks"] == 8
        assert verified.integrity["spot_mismatches"] > 0
        assert verified.integrity["convicted"]

    def test_replicate_on_a_chain_delegates_to_spot_checks(self):
        report = sabotage(make_grid(42), ["worker-0", "worker-1"]).run(
            chain_graph(), iterations=8, run_until=200_000,
            verification="replicate-3",
        )
        # No disjoint replica set exists for a chain: replication must
        # have fallen back to quiz recomputation, not voted.
        assert report.integrity["spot_checks"] > 0
        assert report.integrity["replicas_issued"] == 0


class TestSpotCheckFarm:
    def test_spot_checks_catch_and_repair_quizzed_iterations(self):
        clean = make_grid(43).run(farm_graph(), iterations=10,
                                  run_until=200_000)
        verified = sabotage(make_grid(43), ["worker-1"]).run(
            farm_graph(), iterations=10, run_until=200_000,
            verification="spot-1.0",
        )
        assert results_digest(verified) == results_digest(clean)
        assert verified.integrity["spot_checks"] == 10

    def test_verification_overhead_bucket_appears_in_analysis(self, tmp_path):
        from repro.observe import analyze

        trace = str(tmp_path / "run.jsonl")
        sabotage(make_grid(44), ["worker-1"]).run(
            farm_graph(), iterations=8, run_until=200_000,
            verification="replicate-3", trace_out=trace,
        )
        report = analyze(trace)
        buckets = report["bottlenecks"]["seconds"]
        assert "verification_overhead" in buckets
        assert buckets["verification_overhead"] >= 0.0


class TestReputationWeightedEndToEnd:
    def test_hostile_run_with_reputation_dispatch_still_bit_identical(self):
        generate_snapshots(n_frames=10, n_particles=200, seed=6,
                           register_as="rep-gal")
        build = lambda: build_galaxy_graph("rep-gal", resolution=16)
        clean = make_grid(903).run(build(), iterations=10, run_until=200_000)
        verified = make_grid(903, plan=hostile_plan()).run(
            build(), iterations=10, run_until=200_000,
            verification="replicate-3", dispatch="reputation_weighted",
        )
        assert results_digest(verified) == results_digest(clean)
        # Convicted peers end the run with drained health scores.
        health = verified.recovery["health"]
        for peer in verified.integrity["convicted"]:
            assert health[peer] < 1.0


class TestVerificationDisabledIsUntouched:
    def test_default_run_reports_empty_integrity(self):
        report = make_grid(45).run(farm_graph(), iterations=4,
                                   run_until=200_000)
        assert report.integrity == {}

    def test_clean_fleet_under_replication_agrees_unanimously(self):
        clean = make_grid(46).run(farm_graph(), iterations=6,
                                  run_until=200_000)
        verified = make_grid(46).run(
            farm_graph(), iterations=6, run_until=200_000,
            verification="replicate-3",
        )
        assert results_digest(verified) == results_digest(clean)
        integ = verified.integrity
        assert integ["overturned"] == 0
        assert integ["convicted"] == {}
        assert integ["tie_breaks"] == 0
