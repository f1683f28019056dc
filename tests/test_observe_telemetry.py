"""Live telemetry: sampler ring buffer, online detectors."""

import json

import pytest

from repro.observe import (
    HealthMonitor,
    Incident,
    TelemetrySampler,
    Tracer,
    default_detectors,
    health_incidents,
    render_top,
    score_against_faults,
)
from repro.observe.health import (
    BacklogGrowthDetector,
    FetchStormDetector,
    HeartbeatSilenceDetector,
    ReputationCollapseDetector,
    StarvationDetector,
    StragglerDetector,
)
from repro.simkernel import Simulator


class _StubQueue:
    _len = 3


class _StubSim:
    """Just enough simulator surface for the sampler's kernel block."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._queue = _StubQueue()


def _tick(sampler, sim, now):
    sim.now = now
    if now >= sampler.next_tick:
        sampler.on_step(sim)


class TestTelemetrySampler:
    def test_rows_stamped_at_tick_boundaries(self):
        sim = _StubSim()
        s = TelemetrySampler(interval=1.0)
        s.bind(sim)
        _tick(s, sim, 0.4)
        _tick(s, sim, 3.2)  # crosses 1.0, 2.0, 3.0 in one step
        rows = s.rows()
        assert [r["t"] for r in rows] == [1.0, 2.0, 3.0]
        assert [r["seq"] for r in rows] == [0, 1, 2]
        assert rows[0]["sim"] == {"queue_depth": 3, "events": 0}
        assert s.next_tick == 4.0

    def test_ring_drops_oldest(self):
        sim = _StubSim()
        s = TelemetrySampler(interval=1.0, capacity=3)
        s.bind(sim)
        _tick(s, sim, 5.0)
        assert s.samples_taken == 5
        assert s.samples_dropped == 2
        assert [r["t"] for r in s.rows()] == [3.0, 4.0, 5.0]
        assert s.latest()["t"] == 5.0

    def test_max_catchup_skips_quiet_gaps(self):
        sim = _StubSim()
        s = TelemetrySampler(interval=1.0, max_catchup=2)
        s.bind(sim)
        _tick(s, sim, 10.0)  # 9 boundaries behind; only the last 3 emit
        assert s.ticks_skipped == 7
        assert [r["t"] for r in s.rows()] == [8.0, 9.0, 10.0]

    def test_sources_appear_in_rows(self):
        sim = _StubSim()
        s = TelemetrySampler(interval=1.0)
        s.bind(sim)
        s.add_source("net", lambda: {"in_flight": 7})
        _tick(s, sim, 1.0)
        assert s.latest()["net"] == {"in_flight": 7}
        assert s.summary()["sources"] == ["net"]

    def test_duplicate_source_rejected(self):
        s = TelemetrySampler()
        s.add_source("net", dict)
        with pytest.raises(ValueError):
            s.add_source("net", dict)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval=0.0)
        with pytest.raises(ValueError):
            TelemetrySampler(capacity=0)

    def test_monitor_sees_every_row(self):
        seen = []

        class Monitor:
            def on_sample(self, row):
                seen.append(row["t"])

        sim = _StubSim()
        s = TelemetrySampler(interval=2.0)
        s.attach_monitor(Monitor())
        s.bind(sim)
        _tick(s, sim, 6.5)
        assert seen == [2.0, 4.0, 6.0]

    def test_export_jsonl_round_trip(self, tmp_path):
        sim = _StubSim()
        s = TelemetrySampler(interval=1.0)
        s.bind(sim)
        s.add_source("workers", lambda: {"w0": {"queued": 1}})
        _tick(s, sim, 2.0)
        path = tmp_path / "telemetry.jsonl"
        assert s.export_jsonl(str(path)) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == s.rows()

    def test_summary_shape(self):
        s = TelemetrySampler(interval=0.5, capacity=8)
        summary = s.summary()
        assert summary == {
            "interval_s": 0.5,
            "samples": 0,
            "buffered": 0,
            "dropped": 0,
            "ticks_skipped": 0,
            "sources": [],
        }


class TestInstallSampler:
    def test_sampler_ticks_during_sim_run(self):
        sim = Simulator(seed=0, tracer=Tracer())
        sampler = TelemetrySampler(interval=1.0)
        sim.install_sampler(sampler)
        for t in (0.5, 1.5, 2.5, 3.5):
            sim.call_at(t, lambda: None)
        sim.run()
        assert sampler.samples_taken >= 3
        row = sampler.rows()[0]
        assert row["sim"]["events"] >= 1

    def test_install_on_untraced_sim_installs_tracer(self):
        sim = Simulator(seed=0)
        assert not sim.tracer.enabled
        sim.install_sampler(TelemetrySampler(interval=1.0))
        assert sim.tracer.enabled

    def test_install_tracer_carries_sampler_across(self):
        sim = Simulator(seed=0, tracer=Tracer())
        sampler = TelemetrySampler(interval=1.0)
        sim.install_sampler(sampler)
        replacement = Tracer()
        sim.install_tracer(replacement)
        assert replacement._sampler is sampler


def _row(t, **sections):
    row = {"t": t, "seq": 0, "sim": {"queue_depth": 0, "events": 0}}
    row.update(sections)
    return row


def _worker(iterations=0, queued=0, inflight=0, fetches=0, peer_fetches=0):
    return {
        "iterations": iterations,
        "queued": queued,
        "inflight": inflight,
        "cache": {"fetches": fetches, "peer_fetches": peer_fetches},
    }


class TestDetectors:
    def test_heartbeat_silence_fires_on_new_suspicion_only(self):
        monitor = HealthMonitor([HeartbeatSilenceDetector()])
        monitor.on_sample(_row(1.0, detector={"suspected": []}))
        monitor.on_sample(_row(2.0, detector={"suspected": ["w2"]}))
        monitor.on_sample(_row(3.0, detector={"suspected": ["w2"]}))  # no re-fire
        assert [i.kind for i in monitor.incidents] == ["heartbeat-silence"]
        inc = monitor.incidents[0]
        assert inc.track == "w2" and inc.severity == "critical" and inc.time == 2.0

    def test_straggler_z_score(self):
        monitor = HealthMonitor([StragglerDetector(z_threshold=2.0, min_lag=2.0)])
        workers = {f"w{i}": _worker(iterations=10) for i in range(5)}
        workers["w5"] = _worker(iterations=2)
        monitor.on_sample(_row(5.0, workers=workers))
        monitor.on_sample(_row(6.0, workers=workers))  # still lagging: no re-fire
        assert len(monitor.incidents) == 1
        inc = monitor.incidents[0]
        assert inc.kind == "straggler" and inc.track == "w5"
        assert inc.detail["z"] <= -2.0

    def test_straggler_ignores_suspected_peers(self):
        # A crashed (suspected) peer's frozen count must not fire straggler.
        monitor = HealthMonitor([StragglerDetector()])
        workers = {f"w{i}": _worker(iterations=10) for i in range(5)}
        workers["w5"] = _worker(iterations=0)
        monitor.on_sample(
            _row(5.0, workers=workers, detector={"suspected": ["w5"]})
        )
        assert monitor.incidents == []

    def test_fetch_storm_latches(self):
        monitor = HealthMonitor([FetchStormDetector(threshold=10)])
        monitor.on_sample(_row(1.0, workers={"w0": _worker(fetches=0)}))
        monitor.on_sample(_row(2.0, workers={"w0": _worker(fetches=50)}))
        monitor.on_sample(_row(3.0, workers={"w0": _worker(fetches=100)}))  # latched
        monitor.on_sample(_row(4.0, workers={"w0": _worker(fetches=100)}))  # calm
        monitor.on_sample(_row(5.0, workers={"w0": _worker(fetches=160)}))  # re-fires
        kinds = [i.kind for i in monitor.incidents]
        assert kinds == ["fetch-storm", "fetch-storm"]
        assert monitor.incidents[0].track == "grid"

    def test_starvation_needs_patience(self):
        monitor = HealthMonitor([StarvationDetector(backlog_min=3, patience=3)])
        workers = {"w0": _worker(queued=8), "w1": _worker()}
        for t in (1.0, 2.0):
            monitor.on_sample(_row(t, workers=workers))
        assert monitor.incidents == []
        monitor.on_sample(_row(3.0, workers=workers))
        assert [i.track for i in monitor.incidents] == ["w1"]
        assert monitor.incidents[0].severity == "info"

    def test_backlog_growth_streak(self):
        monitor = HealthMonitor([BacklogGrowthDetector(patience=3)])
        for t, queued in enumerate((1, 2, 3, 4, 5), start=1):
            monitor.on_sample(_row(float(t), workers={"w0": _worker(queued=queued)}))
        assert [i.kind for i in monitor.incidents] == ["backlog-growth"]
        # draining resets the latch
        monitor.on_sample(_row(6.0, workers={"w0": _worker(queued=0)}))
        assert len(monitor.incidents) == 1

    def test_reputation_collapse_once_per_peer(self):
        monitor = HealthMonitor([ReputationCollapseDetector()])
        monitor.on_sample(_row(1.0, reputation={"convicted": {"w3": 1}}))
        monitor.on_sample(_row(2.0, reputation={"convicted": {"w3": 2, "w4": 1}}))
        assert [(i.track, i.time) for i in monitor.incidents] == [
            ("w3", 1.0),
            ("w4", 2.0),
        ]

    def test_detectors_tolerate_bare_rows(self):
        monitor = HealthMonitor(default_detectors())
        monitor.on_sample(_row(1.0))  # only the sim block
        assert monitor.incidents == []


class TestHealthMonitor:
    def test_ranked_most_severe_first(self):
        monitor = HealthMonitor([StarvationDetector(patience=1),
                                 HeartbeatSilenceDetector()])
        monitor.on_sample(
            _row(
                1.0,
                workers={"w0": _worker(queued=9), "w1": _worker()},
                detector={"suspected": ["w2"]},
            )
        )
        ranked = monitor.ranked()
        assert [i.severity for i in ranked] == ["critical", "info"]

    def test_summary_counts(self):
        monitor = HealthMonitor([HeartbeatSilenceDetector()])
        monitor.on_sample(_row(1.0, detector={"suspected": ["a", "b"]}))
        summary = monitor.summary()
        assert summary["incidents"] == 2
        assert summary["by_severity"] == {"critical": 2}
        assert summary["by_kind"] == {"heartbeat-silence": 2}
        assert len(summary["worst"]) == 2

    def test_max_incidents_bounds_memory(self):
        monitor = HealthMonitor([HeartbeatSilenceDetector()], max_incidents=1)
        monitor.on_sample(_row(1.0, detector={"suspected": ["a", "b", "c"]}))
        assert len(monitor.incidents) == 1
        assert monitor.dropped == 2
        assert monitor.summary()["dropped"] == 2

    def test_incidents_mirrored_onto_trace(self):
        tracer = Tracer()
        tracer.attach_clock(lambda: 0.0)
        monitor = HealthMonitor([HeartbeatSilenceDetector()])
        monitor.attach(tracer)
        monitor.on_sample(_row(4.0, detector={"suspected": ["w1"]}))
        found = health_incidents(tracer)
        assert len(found) == 1
        assert found[0]["kind"] == "heartbeat-silence"
        assert found[0]["track"] == "w1" and found[0]["time"] == 4.0


class TestScoring:
    def test_clean_run_scores_perfect(self):
        score = score_against_faults([], [])
        assert score["recall"] == 1.0 and score["precision"] == 1.0
        assert score["faults"] == 0 and score["incidents"] == 0

    def test_crash_detected_via_heartbeat_silence(self):
        log = [{"t": 10.0, "action": "crash", "detail": "worker-1"}]
        incidents = [
            Incident(time=12.0, kind="heartbeat-silence", severity="critical",
                     track="worker-1", message="x"),
        ]
        score = score_against_faults(incidents, log)
        assert score["recall"] == 1.0 and score["precision"] == 1.0
        assert score["matched"][0]["incident_kind"] == "heartbeat-silence"

    def test_incident_before_onset_does_not_count(self):
        log = [{"t": 10.0, "action": "crash", "detail": "worker-1"}]
        incidents = [
            Incident(time=5.0, kind="heartbeat-silence", severity="critical",
                     track="worker-1", message="x"),
        ]
        score = score_against_faults(incidents, log)
        assert score["recall"] == 0.0
        assert score["missed"][0]["target"] == "worker-1"

    def test_slowdown_matches_straggler_with_suffixed_detail(self):
        log = [{"t": 8.0, "action": "slowdown", "detail": "worker-2 x0.1"}]
        incidents = [
            {"time": 15.0, "kind": "straggler", "track": "worker-2"},
        ]
        score = score_against_faults(incidents, log)
        assert score["recall"] == 1.0

    def test_ambient_kinds_excluded_from_precision(self):
        log = [{"t": 5.0, "action": "saboteur", "detail": "worker-3 p=1"}]
        incidents = [
            Incident(time=9.0, kind="reputation-collapse", severity="critical",
                     track="worker-3", message="x"),
            Incident(time=9.0, kind="fetch-storm", severity="warning",
                     track="grid", message="x"),
        ]
        score = score_against_faults(incidents, log)
        assert score["precision"] == 1.0
        assert score["ambient_incidents"] == 1

    def test_unrelated_incident_costs_precision(self):
        incidents = [
            Incident(time=9.0, kind="straggler", severity="warning",
                     track="worker-0", message="x"),
        ]
        score = score_against_faults(incidents, [])
        assert score["precision"] == 0.0
        assert score["unmatched"][0]["track"] == "worker-0"

    def test_duplicate_log_onsets_collapse_to_one_fault(self):
        log = [
            {"t": 10.0, "action": "crash", "detail": "worker-1"},
            {"t": 10.0, "action": "crash", "detail": "worker-1"},
        ]
        score = score_against_faults([], log)
        assert score["faults"] == 1


class TestRenderTop:
    def _traced_run(self, incidents=True):
        t = Tracer()
        clock = {"now": 0.0}
        t.attach_clock(lambda: clock["now"])
        run = t.begin("sim.run", category="simkernel", track="sim")
        for name, start, end in (("w0", 1.0, 9.0), ("w1", 1.0, 4.0)):
            clock["now"] = start
            span = t.begin("worker.exec", category="service", track=name)
            clock["now"] = end
            span.end()
        if incidents:
            t.instant(
                "health.incident", category="health", track="w1", time=5.0,
                kind="straggler", severity="warning", message="w1 lags",
            )
        clock["now"] = 10.0
        run.end()
        return t

    def test_three_panes(self):
        text = render_top(self._traced_run())
        assert text.startswith("repro top")
        assert "w0" in text and "#" in text  # utilization bars
        assert "WARN" in text and "straggler" in text  # incident timeline
        assert "worst offenders" in text

    def test_healthy_run(self):
        text = render_top(self._traced_run(incidents=False))
        assert "incidents: none — healthy run" in text
