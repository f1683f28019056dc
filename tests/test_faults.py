"""Tests for the chaos layer: fault plans, presets, and the injector."""

import pytest

from repro.faults import (
    CHAOS_LEVELS,
    FAULT_KINDS,
    Fault,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    chaos,
)
from repro.p2p import Message, Peer, SimNetwork
from repro.simkernel import Simulator


def small_net(n: int = 4):
    """``n`` peers ``n0``… on one network; each files ``x`` messages in its inbox."""
    sim = Simulator(seed=11)
    net = SimNetwork(sim, jitter_fraction=0.0)
    peers = {f"n{i}": Peer(f"n{i}", net) for i in range(n)}
    inboxes: dict[str, list] = {name: [] for name in peers}
    for name, peer in peers.items():
        peer.on("x", inboxes[name].append)
    return sim, net, peers, inboxes


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="meteor", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="crash", at=-1.0, targets=("n0",))

    def test_crash_needs_targets(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="crash", at=1.0)

    def test_partition_needs_both_groups(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="partition", at=1.0, targets=("a",))

    def test_partition_groups_must_not_overlap(self):
        with pytest.raises(FaultPlanError):
            Fault(
                kind="partition", at=1.0, duration=2.0,
                targets=("a", "b"), targets_b=("b", "c"),
            )

    def test_window_kinds_need_fraction_in_unit_interval(self):
        for kind in ("loss", "corrupt", "duplicate", "reorder"):
            with pytest.raises(FaultPlanError):
                Fault(kind=kind, at=1.0, duration=5.0, fraction=0.0)
            with pytest.raises(FaultPlanError):
                Fault(kind=kind, at=1.0, duration=5.0, fraction=1.0)

    def test_slowdown_needs_positive_factor_and_duration(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="slowdown", at=1.0, duration=5.0, targets=("a",), factor=0.0)
        with pytest.raises(FaultPlanError):
            Fault(kind="slowdown", at=1.0, duration=0.0, targets=("a",), factor=0.5)

    def test_compute_kinds_need_targets(self):
        for kind in ("saboteur", "flaky_compute", "liar_heartbeat"):
            with pytest.raises(FaultPlanError):
                Fault(kind=kind, at=1.0, duration=5.0, fraction=0.5)

    def test_compute_fraction_in_half_open_unit_interval(self):
        with pytest.raises(FaultPlanError):
            Fault(kind="saboteur", at=1.0, targets=("a",), fraction=0.0)
        with pytest.raises(FaultPlanError):
            Fault(kind="saboteur", at=1.0, targets=("a",), fraction=1.5)
        # Unlike transport windows, p=1 is legal: a peer that always lies.
        Fault(kind="saboteur", at=1.0, targets=("a",), fraction=1.0)

    def test_compute_targets_checked_against_known_nodes(self):
        plan = FaultPlan(
            [Fault(kind="saboteur", at=1.0, targets=("ghost",), fraction=0.5)]
        )
        with pytest.raises(FaultPlanError):
            plan.validate(["n0", "n1"])


class TestFaultPlan:
    def test_iteration_is_time_ordered(self):
        plan = FaultPlan()
        plan.add(Fault(kind="crash", at=9.0, targets=("a",)))
        plan.add(Fault(kind="crash", at=2.0, targets=("b",)))
        assert [f.at for f in plan] == [2.0, 9.0]

    def test_horizon_and_kinds(self):
        plan = FaultPlan(
            [
                Fault(kind="crash", at=5.0, duration=10.0, targets=("a",)),
                Fault(kind="corrupt", at=1.0, duration=3.0, fraction=0.1),
            ]
        )
        assert plan.kinds() == {"crash": 1, "corrupt": 1}

    def test_validate_flags_unknown_nodes(self):
        plan = FaultPlan([Fault(kind="crash", at=1.0, targets=("ghost",))])
        with pytest.raises(FaultPlanError):
            plan.validate(["n0", "n1"])
        plan.validate(None)  # no node list: nothing to check

class TestChaosPresets:
    WORKERS = [f"w{i}" for i in range(10)]

    def test_unknown_level_rejected(self):
        with pytest.raises(FaultPlanError):
            chaos("apocalyptic", workers=self.WORKERS)

    def test_same_seed_same_plan(self):
        a = chaos("moderate", seed=7, workers=self.WORKERS)
        b = chaos("moderate", seed=7, workers=self.WORKERS)
        assert list(a) == list(b)

    def test_different_seed_different_plan(self):
        a = chaos("moderate", seed=7, workers=self.WORKERS)
        b = chaos("moderate", seed=8, workers=self.WORKERS)
        assert list(a) != list(b)

    def test_moderate_contents(self):
        plan = chaos("moderate", seed=3, workers=self.WORKERS)
        kinds = plan.kinds()
        assert kinds["crash"] == 3  # 30% of 10 workers
        assert kinds["partition"] == 1
        assert kinds["corrupt"] == 1 and kinds["slowdown"] == 1
        assert "portal-outage" not in kinds

    def test_heavy_adds_portal_outage(self):
        plan = chaos("heavy", seed=3, workers=self.WORKERS, portal="the-portal")
        outages = [f for f in plan if f.kind == "portal-outage"]
        assert len(outages) == 1
        assert outages[0].targets == ("the-portal",)

    def test_hostile_is_all_lies_no_silence(self):
        plan = chaos("hostile", seed=3, workers=self.WORKERS)
        kinds = plan.kinds()
        assert kinds["saboteur"] == 3      # 34% of 10 workers
        assert kinds["flaky_compute"] == 2  # 17% of 10 workers
        assert kinds["liar_heartbeat"] == 1
        assert "crash" not in kinds and "partition" not in kinds
        # Each compute-faulty peer is drafted for exactly one role.
        drafted = [f.targets[0] for f in plan if f.kind in
                   ("saboteur", "flaky_compute", "liar_heartbeat")]
        assert len(drafted) == len(set(drafted))

    def test_hostile_draft_is_deterministic(self):
        a = chaos("hostile", seed=9, workers=self.WORKERS)
        b = chaos("hostile", seed=9, workers=self.WORKERS)
        assert list(a) == list(b)
        assert list(a) != list(chaos("hostile", seed=10, workers=self.WORKERS))

    def test_levels_are_closed_set(self):
        assert set(CHAOS_LEVELS) == {"mild", "moderate", "heavy", "hostile"}
        for level in CHAOS_LEVELS:
            plan = chaos(level, seed=0, workers=self.WORKERS)
            assert set(plan.kinds()) <= FAULT_KINDS

    def test_faults_lie_in_window(self):
        start, horizon = 25.0, 50.0
        plan = chaos("heavy", seed=2, workers=self.WORKERS,
                     start=start, horizon=horizon)
        for fault in plan:
            assert start <= fault.at <= start + horizon


class TestInjector:
    def test_partition_cut_and_heal(self):
        sim, net, peers, inboxes = small_net()
        plan = FaultPlan(
            [Fault(kind="partition", at=5.0, duration=5.0,
                   targets=("n0",), targets_b=("n1",))]
        )
        FaultInjector(sim, net, plan, peers).schedule()
        sim.run(until=6.0)
        assert net.partitioned("n0", "n1")
        assert not net.partitioned("n0", "n2")
        net.send(Message(kind="x", src="n0", dst="n1"))
        sim.run(until=8.0)
        assert net.stats.dropped_partition == 1
        assert inboxes["n1"] == []
        sim.run(until=11.0)
        assert not net.partitioned("n0", "n1")

    def test_crash_of_a_node_without_a_peer_is_refused_at_schedule(self):
        sim, net, peers, _ = small_net()
        net.add_node("bare", lambda message: None)
        plan = FaultPlan([
            Fault(kind="slowdown", at=1.0, duration=2.0, targets=("n0",), factor=0.5),
            Fault(kind="crash", at=3.0, duration=4.0, targets=("n2", "bare")),
        ])
        inj = FaultInjector(sim, net, plan, peers)
        with pytest.raises(FaultError, match=r"crash @t=3 .*: no Peer for bare"):
            inj.schedule()
        sim.run()
        assert inj.log == [] and net.is_online("bare")  # nothing was installed

    def test_crash_with_peer_uses_scripted_availability(self):
        sim = Simulator(seed=12)
        net = SimNetwork(sim, jitter_fraction=0.0)
        peer = Peer("p0", net)
        downs = []
        plan = FaultPlan(
            [Fault(kind="crash", at=2.0, duration=3.0, targets=("p0",))]
        )
        inj = FaultInjector(sim, net, plan, peers={"p0": peer}).schedule()
        assert "p0" in inj.availability
        inj.availability["p0"].on_down(lambda p: downs.append(sim.now))
        sim.run(until=2.5)
        assert not peer.online
        assert downs == [2.0]
        sim.run(until=6.0)
        assert peer.online
        assert inj.availability["p0"].stats.sessions >= 1

    def test_fraction_window_set_and_restored(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan(
            [Fault(kind="corrupt", at=2.0, duration=3.0, fraction=0.5)]
        )
        FaultInjector(sim, net, plan, peers).schedule()
        assert net.corrupt_fraction == 0.0
        sim.run(until=3.0)
        assert net.corrupt_fraction == 0.5
        sim.run(until=6.0)
        assert net.corrupt_fraction == 0.0

    def test_loss_window_drops_only_while_open(self):
        sim, net, peers, inboxes = small_net()
        plan = FaultPlan([Fault(kind="loss", at=2.0, duration=3.0, fraction=0.5)])
        inj = FaultInjector(sim, net, plan, peers).schedule()
        dropped = []
        for until in (1.0, 3.0, 6.0):  # before, inside, after the window
            sim.run(until=until)
            for _ in range(100):
                peers["n0"].send("n1", "x")
            dropped.append(net.stats.dropped_loss)
        sim.run()
        assert dropped[0] == 0 and 20 < dropped[1] < 80 and dropped[2] == dropped[1]
        assert len(inboxes["n1"]) == 300 - dropped[2]
        assert [e["action"] for e in inj.log] == ["loss", "loss-end"]
        assert inj.faults_injected == 1

    def test_overlapping_fraction_windows_compose(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan([
            Fault(kind="corrupt", at=10.0, duration=40.0, fraction=0.1),
            Fault(kind="corrupt", at=20.0, duration=20.0, fraction=0.2),
        ])
        FaultInjector(sim, net, plan, peers).schedule()
        seen = []
        for t in (15.0, 30.0, 45.0, 55.0):
            sim.run(until=t)
            seen.append(net.corrupt_fraction)
        # the latest-opened window still open is the one in force
        assert seen == [0.1, 0.2, 0.1, 0.0]

    def test_overlapping_slowdowns_compose(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan([
            Fault(kind="slowdown", at=10.0, duration=40.0, targets=("n3",), factor=0.5),
            Fault(kind="slowdown", at=20.0, duration=20.0, targets=("n2", "n3"),
                  factor=0.25),
        ])
        FaultInjector(sim, net, plan, peers).schedule()
        seen = []
        for t in (15.0, 30.0, 45.0, 55.0):
            sim.run(until=t)
            seen.append((net.speed_factor("n2"), net.speed_factor("n3")))
        assert seen == [(1.0, 0.5), (0.25, 0.25), (1.0, 0.5), (1.0, 1.0)]

    def test_slowdown_scales_and_restores_speed(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan(
            [Fault(kind="slowdown", at=1.0, duration=2.0,
                   targets=("n3",), factor=0.25)]
        )
        FaultInjector(sim, net, plan, peers).schedule()
        sim.run(until=1.5)
        assert net.speed_factor("n3") == 0.25
        sim.run(until=4.0)
        assert net.speed_factor("n3") == 1.0

    def test_past_faults_are_skipped_not_fired_late(self):
        sim, net, peers, _ = small_net()
        sim.call_at(10.0, lambda: None)
        sim.run()  # advance time to t=10
        plan = FaultPlan([Fault(kind="crash", at=3.0, targets=("n0",))])
        inj = FaultInjector(sim, net, plan, peers).schedule()
        sim.run()
        assert net.is_online("n0")
        assert [e["action"] for e in inj.log] == ["skipped-past"]
        assert inj.faults_injected == 0

    def test_schedule_is_idempotent(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan(
            [Fault(kind="crash", at=3.0, duration=1.0, targets=("n0",))]
        )
        inj = FaultInjector(sim, net, plan, peers)
        inj.schedule()
        inj.schedule()
        sim.run()
        assert [e["action"] for e in inj.log] == ["crash", "restart"]

    def test_unknown_target_rejected_at_schedule(self):
        sim, net, peers, _ = small_net()
        plan = FaultPlan([Fault(kind="crash", at=1.0, targets=("ghost",))])
        with pytest.raises(FaultPlanError):
            FaultInjector(sim, net, plan, peers).schedule()

    def test_summary_counts(self):
        sim, net, peers, _ = small_net()
        plan = chaos("mild", seed=4, workers=["n0", "n1", "n2"],
                     controller="n3", portal="n3", start=1.0, horizon=10.0)
        inj = FaultInjector(sim, net, plan, peers).schedule()
        sim.run()
        summary = inj.summary()
        assert summary["plan"] == plan.name
        assert summary["planned"] == len(plan)
        assert summary["injected"] >= 1
        assert summary["kinds"] == plan.kinds()


class TestChaosNetStats:
    def test_fraction_validation(self):
        # A network is built clean; the range is the fault window's to check.
        net = SimNetwork(Simulator())
        for kind in ("loss", "corrupt", "duplicate", "reorder"):
            assert getattr(net, f"{kind}_fraction") == 0.0
            with pytest.raises(FaultPlanError):
                Fault(kind=kind, at=1.0, duration=5.0, fraction=-0.1)

    def test_corruption_counted_and_dropped(self):
        sim = Simulator(seed=21)
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.corrupt_fraction = 0.3
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", got.append)
        for _ in range(1000):
            net.send(Message(kind="x", src="a", dst="b"))
        sim.run()
        assert net.stats.corrupted == pytest.approx(300, rel=0.25)
        assert len(got) == 1000 - net.stats.corrupted

    def test_duplication_delivers_extra_copies(self):
        sim = Simulator(seed=22)
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.duplicate_fraction = 0.3
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", got.append)
        for _ in range(1000):
            net.send(Message(kind="x", src="a", dst="b"))
        sim.run()
        assert net.stats.duplicated == pytest.approx(300, rel=0.25)
        assert len(got) == 1000 + net.stats.duplicated

    def test_reordering_counted_and_still_delivered(self):
        sim = Simulator(seed=23)
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.reorder_fraction = 0.5
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", got.append)
        for i in range(100):
            net.send(Message(kind="x", src="a", dst="b", payload=i))
        sim.run()
        assert net.stats.reordered == pytest.approx(50, rel=0.35)
        assert len(got) == 100  # reordering never loses messages
        assert [m.payload for m in got] != list(range(100))

    def test_chaos_stats_deterministic_per_seed(self):
        def run():
            sim = Simulator(seed=24)
            net = SimNetwork(sim, jitter_fraction=0.0)
            net.corrupt_fraction = net.duplicate_fraction = net.reorder_fraction = 0.1
            net.add_node("a", lambda m: None)
            net.add_node("b", lambda m: None)
            for _ in range(300):
                net.send(Message(kind="x", src="a", dst="b"))
            sim.run()
            s = net.stats
            return (s.corrupted, s.duplicated, s.reordered)

        assert run() == run()
