"""Tests for heartbeat failure detection, recovery, and idempotency."""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.core import LocalEngine
from repro.faults import Fault, FaultPlan
from repro.p2p import LAN_PROFILE, Message
from repro.service import HeartbeatFailureDetector
from tests.test_service_run import stateless_pipeline


def recovery_grid(**kw):
    """Compute-bound grid so a mid-run crash actually interrupts work."""
    defaults = dict(
        n_workers=3,
        seed=77,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-6,
    )
    defaults.update(kw)
    return ConsumerGrid(**defaults)


def crash_plan(target="worker-0", at=5.0):
    """Permanent crash (duration=0) of one worker mid-run."""
    return FaultPlan([Fault(kind="crash", at=at, duration=0.0, targets=(target,))])


class TestDetectorUnit:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(suspect_after_missed=0)

    def test_watch_grants_grace_period(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("w", now=10.0)
        assert d.check(now=11.9) == []
        assert d.is_alive("w", now=11.9)

    def test_silence_raises_suspicion(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("w", now=0.0)
        assert d.check(now=2.0) == ["w"]
        assert not d.is_alive("w", now=2.0)
        assert d.workers["w"].suspicions == 1
        assert d.workers["w"].score < 1.0
        # Already suspected: a second check doesn't re-report.
        assert d.check(now=3.0) == []

    def test_heartbeat_clears_suspicion_but_not_score(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("w", now=0.0)
        d.check(now=5.0)
        score = d.workers["w"].score
        d.observe_heartbeat("w", now=5.5)
        assert d.is_alive("w", now=5.5)
        assert d.workers["w"].score == score  # the scar remains

    def test_result_counts_as_heartbeat_and_rewards(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("w", now=0.0)
        d.penalise("w", now=0.0, amount=0.5)
        d.observe_result("w", now=1.9)
        assert d.workers["w"].score == pytest.approx(0.55)
        assert d.check(now=3.5) == []  # the result reset the deadline clock

    def test_unwatched_workers_are_ignored(self):
        d = HeartbeatFailureDetector()
        d.observe_heartbeat("stranger", now=1.0)
        d.observe_result("stranger", now=1.0)
        assert d.workers == {}
        assert d.is_alive("stranger", now=1.0)
        assert d.is_dispatchable("stranger", now=1.0)

    def test_quarantine_below_threshold(self):
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0,
            quarantine_threshold=0.5,
            quarantine_window=100.0,
        )
        d.watch("w", now=0.0)
        d.penalise("w", now=10.0, amount=0.6)
        rec = d.workers["w"]
        assert rec.quarantines == 1
        assert rec.quarantined_until == 110.0
        assert not d.is_dispatchable("w", now=50.0)
        assert d.is_dispatchable("w", now=110.0)

    def test_blacklist_after_repeated_quarantines(self):
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0,
            quarantine_threshold=0.5,
            quarantine_window=10.0,
            blacklist_after=2,
            result_reward=0.5,
        )
        d.watch("w", now=0.0)
        d.penalise("w", now=0.0, amount=0.6)  # quarantine #1
        d.observe_result("w", now=5.0)  # score recovers...
        d.penalise("w", now=20.0, amount=0.6)  # ...quarantine #2 -> blacklist
        assert d.workers["w"].blacklisted
        assert not d.is_dispatchable("w", now=1000.0)
        assert d.check(now=1000.0) == []  # blacklisted workers aren't re-suspected

    def test_snapshot_shape(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("a", now=0.0)
        d.watch("b", now=0.0)
        d.observe_heartbeat("a", now=1.0)
        d.check(now=2.5)
        snap = d.snapshot(now=2.5)
        assert snap["suspected"] == {"b": 1}
        assert snap["heartbeats"] == 1
        assert set(snap["health"]) == {"a", "b"}
        assert snap["blacklisted"] == []


class TestInjectableClock:
    """The detector's clock seam: same transitions on an injected clock.

    On the TCP transport nobody passes ``now=`` explicitly — the
    detector reads an injected wall clock instead.  These regressions
    drive the suspicion → quarantine → blacklist machinery through a
    fake clock and assert the transitions land at the same instants the
    explicit-``now`` tests above pin down.
    """

    @staticmethod
    def fake_clock():
        t = [0.0]

        def clock():
            return t[0]

        return t, clock

    def test_no_clock_and_no_now_is_an_error(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0)
        with pytest.raises(ValueError, match="no clock"):
            d.watch("w")

    def test_explicit_now_overrides_clock(self):
        t, clock = self.fake_clock()
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, clock=clock)
        t[0] = 100.0
        d.watch("w", now=0.0)  # explicit now wins over the clock
        assert d.workers["w"].last_heartbeat == 0.0

    def test_suspicion_transition_on_fake_clock(self):
        t, clock = self.fake_clock()
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0, suspect_after_missed=2, clock=clock
        )
        d.watch("w")
        t[0] = 1.9  # inside the 2-interval deadline
        assert d.check() == []
        assert d.is_alive("w")
        t[0] = 2.0  # deadline reached
        assert d.check() == ["w"]
        assert not d.is_alive("w")
        assert d.workers["w"].suspicions == 1
        t[0] = 2.5  # a heartbeat clears suspicion but not the score scar
        score = d.workers["w"].score
        d.observe_heartbeat("w")
        assert d.is_alive("w")
        assert d.workers["w"].score == score

    def test_quarantine_transition_on_fake_clock(self):
        t, clock = self.fake_clock()
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0,
            quarantine_threshold=0.5,
            quarantine_window=100.0,
            clock=clock,
        )
        d.watch("w")
        t[0] = 10.0
        d.penalise("w", amount=0.6)
        rec = d.workers["w"]
        assert rec.quarantines == 1
        assert rec.quarantined_until == 110.0
        t[0] = 50.0
        assert not d.is_dispatchable("w")
        t[0] = 110.0  # quarantine expires exactly at now + window
        assert d.is_dispatchable("w")

    def test_blacklist_transition_on_fake_clock(self):
        t, clock = self.fake_clock()
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0,
            quarantine_threshold=0.5,
            quarantine_window=10.0,
            blacklist_after=2,
            result_reward=0.5,
            clock=clock,
        )
        d.watch("w")
        d.penalise("w", amount=0.6)  # quarantine #1
        t[0] = 5.0
        d.observe_result("w")  # score recovers
        t[0] = 20.0
        d.penalise("w", amount=0.6)  # quarantine #2 -> blacklist
        assert d.workers["w"].blacklisted
        t[0] = 1000.0
        assert not d.is_dispatchable("w")
        assert d.check() == []

    def test_snapshot_and_telemetry_use_clock(self):
        t, clock = self.fake_clock()
        d = HeartbeatFailureDetector(
            heartbeat_interval=1.0, suspect_after_missed=2, clock=clock
        )
        d.watch("a")
        d.watch("b")
        t[0] = 1.0
        d.observe_heartbeat("a")
        t[0] = 2.5
        d.check()
        snap = d.snapshot()
        assert snap["suspected"] == {"b": 1}
        assert set(snap["health"]) == {"a", "b"}
        sample = d.telemetry_sample()
        assert sample["suspected"] == ["b"]


class TestHeartbeatRecovery:
    """Satellite: suspicion-driven redispatch beats the retry-timeout path."""

    ITER = 12
    TIMEOUT = 60.0

    def run_with(self, heartbeat_interval):
        grid = recovery_grid(
            heartbeat_interval=heartbeat_interval,
            suspect_after_missed=2,
            retry_timeout=self.TIMEOUT,
            retry_interval=2.0,
            fault_plan=crash_plan(),
        )
        report = grid.run(stateless_pipeline(), iterations=self.ITER,
                          run_until=3_000.0)
        assert len(report.group_results) == self.ITER
        return report

    def test_suspicion_redispatch_bounded_by_heartbeat_deadline(self):
        """Recovery latency tracks the heartbeat deadline, not retry_timeout.

        worker-0 dies for good at t=5; suspicion fires ~2 heartbeats later,
        so the whole run must finish well inside one retry_timeout.
        """
        report = self.run_with(heartbeat_interval=1.0)
        rec = report.recovery
        assert rec["suspicion_redispatches"] >= 1
        assert rec["timeout_redispatches"] == 0
        assert "worker-0" in rec["suspected"]
        assert rec["heartbeats"] > 0
        assert report.makespan < 5.0 + self.TIMEOUT

    def test_timeout_fallback_still_works(self):
        """With heartbeats effectively off, the old timeout path recovers."""
        report = self.run_with(heartbeat_interval=10_000.0)
        rec = report.recovery
        assert rec["timeout_redispatches"] >= 1
        assert rec["suspicion_redispatches"] == 0
        assert report.makespan > 5.0 + self.TIMEOUT

    def test_heartbeat_recovery_measurably_faster_than_timeout(self):
        fast = self.run_with(heartbeat_interval=1.0)
        slow = self.run_with(heartbeat_interval=10_000.0)
        assert fast.makespan < 0.7 * slow.makespan

    def test_results_identical_despite_crash(self):
        grid = recovery_grid(
            heartbeat_interval=1.0,
            suspect_after_missed=2,
            retry_timeout=self.TIMEOUT,
            retry_interval=2.0,
            fault_plan=crash_plan(),
        )
        report = grid.run(stateless_pipeline(), iterations=self.ITER,
                          probes=("Power",), run_until=3_000.0)
        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(self.ITER)
        assert len(report.probe_values["Power"]) == self.ITER
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_crashed_worker_health_reported(self):
        report = self.run_with(heartbeat_interval=1.0)
        health = report.recovery["health"]
        assert health["worker-0"] < 1.0  # the suspicion drained its score
        assert "faults" in report.recovery
        assert report.recovery["faults"]["injected"] == 1


class TestIdempotency:
    """Satellite: duplicate group-exec / group-result are harmless."""

    def test_duplicated_messages_do_not_corrupt_results(self):
        grid = recovery_grid(seed=78, duplicate_fraction=0.3,
                             heartbeat_interval=5.0)
        report = grid.run(stateless_pipeline(), iterations=12,
                          probes=("Power",), run_until=3_000.0)
        assert len(report.group_results) == 12
        assert report.messages_duplicated > 0
        # Duplicates were actually seen and absorbed somewhere in the stack:
        # either the worker dropped a second exec, or the controller ignored
        # a second result for an iteration that already succeeded.
        dropped = sum(
            w.stats.duplicate_execs_dropped + w.stats.cached_reships
            for w in grid.workers.values()
        )
        assert dropped + report.recovery["duplicate_results"] >= 1

        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(12)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)

    def test_duplicate_exec_reships_cached_result(self):
        """A replayed group-exec re-ships from cache without re-executing."""
        grid = recovery_grid(seed=78, heartbeat_interval=1.0)
        grid.run(stateless_pipeline(), iterations=12)
        worker_id, service, dep_id, iteration = next(
            (wid, svc, did, min(dep.shipped))
            for wid, svc in grid.workers.items()
            for did, dep in svc.deployments.items()
            if dep.shipped
        )
        iterations_before = service.stats.iterations
        grid.controller_peer.send(
            worker_id, "group-exec", payload=(dep_id, [(iteration, [])])
        )
        grid.sim.run()
        assert service.stats.cached_reships == 1
        assert service.stats.iterations == iterations_before  # no re-compute

    def test_stale_deployment_results_ignored(self):
        """Results tagged with an unknown deployment id don't complete
        iterations of the current run (regression: stale-run guard)."""
        grid = recovery_grid(seed=78, heartbeat_interval=5.0)

        def fake_result():
            grid.transport.send(
                Message(
                    kind="group-result",
                    src="worker-0",
                    dst="controller",
                    payload=("dep-BOGUS", 0, []),
                )
            )

        grid.sim.call_at(8.0, fake_result)  # mid-run: makespan is ~21s
        report = grid.run(stateless_pipeline(), iterations=12, probes=("Power",))
        assert report.recovery["stale_results"] >= 1
        assert len(report.group_results) == 12

        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(12)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)
