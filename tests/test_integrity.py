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
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.apps.inspiral import build_inspiral_graph
from repro.core.engine import LocalEngine
from repro.core.types import SampleSet
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.faults.compute import ComputeFaultModel, ComputeFaultWindow
from repro.observe import NullTracer
from repro.p2p import LAN_PROFILE
from repro.service import ParallelFarmPolicy, SchedulingError
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
from repro.simkernel import Simulator
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


class TestQuorumMustBeFormable:
    def test_replicate9_on_four_workers_is_refused_before_any_exec(self):
        grid = make_grid(47, n_workers=4)
        # Five matching votes cannot come from four hosts.
        refused = r"replicate-9 .* quorum of 5 .* on 4"
        with pytest.raises(SchedulingError, match=refused):
            grid.run(farm_graph(), iterations=6, run_until=200_000,
                     verification="replicate-9")
        kinds = grid.transport.stats.by_kind
        assert kinds.get("deploy-ack") == 4 and "group-exec" not in kinds

    def test_a_chain_is_exempt_because_it_spot_checks(self):
        clean = make_grid(47, n_workers=4).run(
            chain_graph(), iterations=6, run_until=200_000
        )
        report = make_grid(47, n_workers=4).run(
            chain_graph(), iterations=6, run_until=200_000,
            verification="replicate-9",
        )
        assert results_digest(report) == results_digest(clean)
        assert report.integrity["replicas_issued"] == 0


# -- ballots -----------------------------------------------------------------------


class _BallotCtx:
    """The slice of a DispatchContext a farm ballot runs through, on a
    real simulator so a local settle's recompute takes modelled time."""

    policy = ParallelFarmPolicy()

    def __init__(self, hosts, group=None, offline=()):
        self.sim = Simulator(seed=1)
        self.replica_hosts = list(hosts)
        self.dep_ids = [f"d-{h}" for h in hosts]
        self.group = group
        self.offline = set(offline)
        self.settled, self.spawned = [], []

        class _Peer:
            peer_id = "controller"

        class _Detector:
            @staticmethod
            def is_dispatchable(host, now):
                return True

        self.peer, self.detector = _Peer(), _Detector()

    def is_online(self, host):
        return host not in self.offline

    def send_exec(self, worker, deployment_id, items, verify=True):
        pass

    def settle(self, iteration, outputs, worker):
        self.settled.append((iteration, outputs, worker))

    def spawn(self, generator, name):
        self.spawned.append(name)
        return self.sim.process(generator, name=name)

    def profile(self, host):
        return LAN_PROFILE

    def notify(self, kind, **data):
        pass


def voting_on(ctx, k=3):
    voting = ReplicationVoting(k)
    voting.ledger = ReputationLedger(HeartbeatFailureDetector(heartbeat_interval=1.0))
    voting.start(ctx)
    return voting


def group_io(graph, feeder, iterations=1):
    """``graph``'s group, and per iteration the inputs ``feeder`` deals
    it and the outputs it should return."""
    (group,) = graph.groups()
    engine = LocalEngine(graph)
    feed = engine.attach_probe(feeder)
    outs = [engine.attach_probe(f"{group.name}/{task}", node)
            for task, node in group.output_map]
    for _ in range(iterations):
        engine.step()
    truths = [list(v) for v in zip(*(p.values for p in outs))]
    return group, [[v] for v in feed.values], truths


class TestBallots:
    def test_only_a_peer_the_iteration_was_shipped_to_votes(self):
        group, (inputs,), _truths = group_io(farm_graph(), "Wave")
        ctx = _BallotCtx(["w0", "w1", "w2", "w3"], group=group)
        voting = voting_on(ctx)
        voting.on_dispatch(ctx, "w0", "d-w0", [(0, inputs)])
        assert voting.ballots[0].asked == {"w0", "w1", "w2"}
        voting.on_result(ctx, 0, "w0", ["lie"])
        voting.on_result(ctx, 0, "w3", ["lie"])  # never asked
        assert ctx.settled == []
        voting.on_result(ctx, 0, "w1", ["truth"])
        voting.on_result(ctx, 0, "w2", ["truth"])
        assert ctx.settled == [(0, ["truth"], "w1")]
        assert voting.stats["votes"] == 3
        assert voting.ledger.convictions == {"w0": 1}

    def test_a_result_without_a_ballot_is_not_settled(self):
        ctx = _BallotCtx(["w0", "w1", "w2"])
        voting = voting_on(ctx)
        voting.on_result(ctx, 5, "w0", ["x"])
        assert ctx.settled == [] and voting.stats["votes"] == 0

    def test_a_vote_cast_during_a_local_settle_waits_for_the_controller(self):
        group, (inputs,), (truth,) = group_io(farm_graph(), "Wave")
        ctx = _BallotCtx(["w0", "w1", "w2", "w3"], group=group, offline=["w3"])
        voting = voting_on(ctx)
        voting.on_dispatch(ctx, "w0", "d-w0", [(0, inputs)])
        voting.on_result(ctx, 0, "w0", ["lie-a"])
        voting.on_result(ctx, 0, "w1", ["lie-b"])
        voting.on_result(ctx, 0, "w2", truth)
        # Three digests, no quorum, and the only fresh peer is offline:
        # the controller recomputes.
        assert ctx.spawned == ["verify-settle-0"] and ctx.settled == []
        ctx.offline.clear()
        voting.on_dispatch(ctx, "w3", "d-w3", [(0, inputs)])  # a redispatch
        voting.on_result(ctx, 0, "w3", ["lie-a"])
        assert ctx.spawned == ["verify-settle-0"] and ctx.settled == []
        ctx.sim.run()
        assert ctx.settled == [(0, truth, "w2")]
        assert voting.accepted[0] == canonical_digest(truth)
        assert voting.stats["local_settles"] == 1
        assert voting.stats["quorum_accepts"] == 0
        assert voting.ledger.convictions == {"w0": 1, "w1": 1, "w3": 1}

    def test_a_stateful_group_replays_in_order_and_settles_out_of_order(self):
        g = TaskGraph("accum")
        g.add_task("Wave", "Wave", frequency=32.0)
        g.add_task("FFT", "FFT")
        g.add_task("Power", "PowerSpectrum")
        g.add_task("Accum", "AccumStat")  # a running mean: stateful
        g.add_task("Grapher", "Grapher")
        for a, b in [("Wave", "FFT"), ("FFT", "Power"), ("Power", "Accum"),
                     ("Accum", "Grapher")]:
            g.connect(a, 0, b, 0)
        g.group_tasks("G", ["Power", "Accum"], policy="parallel")
        group, inputs, truths = group_io(g, "FFT", iterations=3)
        digests = [canonical_digest(t) for t in truths]
        assert len(set(digests)) == 3  # each iteration's mean differs
        ctx = _BallotCtx(["w0", "w1", "w2"], group=group)
        voting = voting_on(ctx)
        for it in range(3):
            voting.on_dispatch(ctx, "w0", "d-w0", [(it, inputs[it])])
        # Iteration 2 is settled locally first, so the mirror replays 0
        # and 1 on the way; iteration 0 then settles from that replay.
        for it in (2, 0):
            for worker, lie in zip(["w0", "w1", "w2"], "abc"):
                voting.on_result(ctx, it, worker, [lie])
            ctx.sim.run()
        assert [(it, canonical_digest(out), worker)
                for it, out, worker in ctx.settled] == [
            (2, digests[2], "controller"), (0, digests[0], "controller"),
        ]


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


#: seeds on which the six-worker fleet runs out of fresh tie-breakers, so
#: only the controller's own recompute can decide some ballots
EXHAUSTED_SEEDS = (2, 6, 7, 11, 14, 15, 20)


@pytest.mark.parametrize("seed", range(1, 21))
def test_six_hostile_workers_never_settle_a_lie(seed):
    grid = ConsumerGrid(
        n_workers=6, seed=seed, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE, worker_efficiency=5e-3,
        heartbeat_interval=1.0,
        fault_plan=chaos("hostile", seed=seed, workers=WORKERS,
                         start=0.01, horizon=1e6),
    )
    build = lambda: build_inspiral_graph(n_templates=8, chunk_seconds=4.0,
                                         seed=seed)
    report = grid.run(build(), iterations=20, verification="replicate-3",
                      run_until=1e7)
    _group, _inputs, truths = group_io(build(), "Strain", iterations=20)
    assert ([result_checksum(outputs) for outputs in report.group_results]
            == [result_checksum(truth) for truth in truths])
    assert (report.integrity.get("local_settles", 0) > 0) == (seed in EXHAUSTED_SEEDS)


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

    def test_replicate_on_a_chain_spot_checks_instead_of_voting(self):
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
