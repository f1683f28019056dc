"""Tests for heartbeat failure detection, recovery, and idempotency."""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.core import LocalEngine
from repro.faults import Fault, FaultPlan
from repro.p2p import LAN_PROFILE, Message
from repro.service import HeartbeatFailureDetector
from repro.service import detector as detector_module
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
        assert d.is_alive("w")

    def test_silence_raises_suspicion(self):
        d = HeartbeatFailureDetector(heartbeat_interval=1.0, suspect_after_missed=2)
        d.watch("w", now=0.0)
        assert d.check(now=2.0) == ["w"]
        assert not d.is_alive("w")
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
        assert d.is_alive("w")
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
        assert d.is_alive("stranger")
        assert d.is_dispatchable("stranger", now=1.0)

    def test_quarantine_below_threshold(self, monkeypatch):
        monkeypatch.setattr(detector_module, "QUARANTINE_THRESHOLD", 0.5)
        monkeypatch.setattr(detector_module, "QUARANTINE_WINDOW", 100.0)
        d = HeartbeatFailureDetector(heartbeat_interval=1.0)
        d.watch("w", now=0.0)
        d.penalise("w", now=10.0, amount=0.6)
        rec = d.workers["w"]
        assert rec.quarantines == 1
        assert rec.quarantined_until == 110.0
        assert not d.is_dispatchable("w", now=50.0)
        assert d.is_dispatchable("w", now=110.0)

    def test_blacklist_after_repeated_quarantines(self, monkeypatch):
        monkeypatch.setattr(detector_module, "QUARANTINE_THRESHOLD", 0.5)
        monkeypatch.setattr(detector_module, "QUARANTINE_WINDOW", 10.0)
        monkeypatch.setattr(detector_module, "BLACKLIST_AFTER", 2)
        monkeypatch.setattr(detector_module, "RESULT_REWARD", 0.5)
        d = HeartbeatFailureDetector(heartbeat_interval=1.0)
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
        # opens just after the grid's ~1 ms settle: all but the discovery query
        duplicate = Fault(kind="duplicate", at=0.0015, duration=10_000.0, fraction=0.3)
        grid = recovery_grid(seed=78, fault_plan=FaultPlan([duplicate]),
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
        replayed = []

        def replay(event):
            # Iteration 0 is in: replay its exec while the run is in flight
            # (the run's end releases the deployment, and with it the cache).
            if event.name != "iteration-complete" or replayed:
                return
            worker_id, dep_id = next(
                (wid, did)
                for wid, svc in sorted(grid.workers.items())
                for did, dep in svc.deployments.items()
                if 0 in dep.shipped
            )
            replayed.append(worker_id)
            grid.controller_peer.send(
                worker_id, "group-exec", payload=(dep_id, [(0, [])])
            )

        grid.sim.tracer.subscribe(replay, category="progress")
        report = grid.run(stateless_pipeline(), iterations=12)
        (worker_id,) = replayed
        assert grid.workers[worker_id].stats.cached_reships == 1
        assert report.redispatches == 0 and report.recovery["speculative"] == 0
        # no re-compute: twelve iterations, twelve executions
        assert sum(w.stats.iterations for w in grid.workers.values()) == 12

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
