"""Tests for worker ranking and dispatch policies."""

import pytest

from repro import ConsumerGrid, TaskGraph
from repro.p2p import Advertisement, LAN_PROFILE, NodeProfile
from repro.service import SchedulingError
from repro.service.placement import (
    RoundRobin,
    WeightedBySpeed,
    make_dispatch_policy,
    rank_workers,
)


def adv(host, cpu=2e9, ram=5e8, down=1e6):
    return Advertisement.make(
        "service", f"triana:{host}", host,
        attrs={"host": host, "cpu_flops": cpu, "free_ram": ram, "down_bps": down},
    )


class TestRankWorkers:
    def test_rank_by_cpu(self):
        advs = [adv("slow", cpu=1e9), adv("fast", cpu=4e9), adv("mid", cpu=2e9)]
        assert rank_workers(advs, "cpu") == ["fast", "mid", "slow"]

    def test_rank_by_ram_and_bandwidth(self):
        advs = [adv("a", ram=1e9, down=1e5), adv("b", ram=2e9, down=1e7)]
        assert rank_workers(advs, "ram") == ["b", "a"]
        assert rank_workers(advs, "bandwidth") == ["b", "a"]

    def test_duplicate_hosts_take_best(self):
        advs = [adv("a", cpu=1e9), adv("a", cpu=3e9), adv("b", cpu=2e9)]
        assert rank_workers(advs, "cpu") == ["a", "b"]

    def test_ties_break_by_name(self):
        advs = [adv("b"), adv("a")]
        assert rank_workers(advs, "cpu") == ["a", "b"]

    def test_unknown_strategy(self):
        with pytest.raises(SchedulingError):
            rank_workers([], "luck")


class TestDispatchPolicies:
    def test_round_robin_cycle(self):
        p = RoundRobin()
        p.setup([1.0, 1.0, 1.0])
        assert [p.choose(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_weighted_prefers_fast_replica(self):
        p = WeightedBySpeed()
        p.setup([4.0, 1.0])  # replica 0 is 4x faster
        choices = [p.choose(i) for i in range(10)]
        assert choices.count(0) >= 7  # ~4:1 split

    def test_weighted_equal_speeds_fair(self):
        p = WeightedBySpeed()
        p.setup([1.0, 1.0])
        choices = [p.choose(i) for i in range(8)]
        assert choices.count(0) == choices.count(1) == 4

    def test_weighted_completion_frees_capacity(self):
        p = WeightedBySpeed()
        p.setup([1.0, 1.0])
        assert p.choose(0) == 0
        assert p.choose(1) == 1
        p.completed(0)
        assert p.choose(2) == 0  # replica 0 is free again

    def test_setup_validation(self):
        with pytest.raises(SchedulingError):
            RoundRobin().setup([])
        with pytest.raises(SchedulingError):
            WeightedBySpeed().setup([0.0])

    def test_factory(self):
        assert isinstance(make_dispatch_policy("round_robin"), RoundRobin)
        assert isinstance(make_dispatch_policy("weighted"), WeightedBySpeed)
        with pytest.raises(SchedulingError):
            make_dispatch_policy("chaotic")


def heavy_graph():
    g = TaskGraph("farm")
    g.add_task("Wave", "Wave", samples=8192)
    g.add_task("FFT", "FFT")
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "FFT", 0)
    g.connect("FFT", 0, "Grapher", 0)
    g.group_tasks("G", ["FFT"], policy="parallel")
    return g


def hetero_grid(seed):
    """2 workers: worker-0 at 4 GHz, worker-1 at 1 GHz (slow compute)."""
    grid = ConsumerGrid(
        n_workers=1,
        seed=seed,
        worker_profile=NodeProfile(
            cpu_flops=4e9,
            up_bps=LAN_PROFILE.up_bps,
            down_bps=LAN_PROFILE.down_bps,
            latency_s=LAN_PROFILE.latency_s,
        ),
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    grid.add_worker(
        "worker-slow",
        profile=NodeProfile(
            cpu_flops=1e9,
            up_bps=LAN_PROFILE.up_bps,
            down_bps=LAN_PROFILE.down_bps,
            latency_s=LAN_PROFILE.latency_s,
        ),
    )
    grid.sim.run()
    return grid


class TestHeterogeneousFarm:
    def test_weighted_beats_round_robin(self):
        def makespan(dispatch, seed):
            grid = hetero_grid(seed)
            report = grid.run(heavy_graph(), iterations=20, dispatch=dispatch)
            assert len(report.group_results) == 20
            return report.makespan

        rr = makespan("round_robin", 201)
        weighted = makespan("weighted", 202)
        # Round-robin is limited by the 1 GHz machine doing half the work;
        # weighted gives it ~1/5 and finishes much sooner.
        assert weighted < 0.75 * rr

    def test_weighted_loads_proportional_to_speed(self):
        grid = hetero_grid(203)
        grid.run(heavy_graph(), iterations=20, dispatch="weighted")
        fast = grid.workers["worker-0"].stats.iterations
        slow = grid.workers["worker-slow"].stats.iterations
        assert fast >= 3 * slow

    def test_results_identical_across_policies(self):
        import numpy as np

        outs = {}
        for dispatch, seed in (("round_robin", 204), ("weighted", 205)):
            grid = hetero_grid(seed)
            report = grid.run(heavy_graph(), iterations=6, dispatch=dispatch)
            outs[dispatch] = [o[0].data for o in report.group_results]
        for a, b in zip(outs["round_robin"], outs["weighted"]):
            np.testing.assert_allclose(a, b)

    def test_unknown_dispatch_rejected(self):
        grid = ConsumerGrid(n_workers=1, seed=206)
        done = grid.controller.run_distributed(
            heavy_graph(), 2, ["worker-0"], (), dispatch="bogus"
        )
        with pytest.raises(SchedulingError):
            grid.sim.run(until=done)
