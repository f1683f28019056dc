"""Trace analytics: critical path, utilization, bottlenecks, run diffing.

Covers the issue's acceptance criteria: the critical path accounts for
the full ``sim.run`` window (``path_s + slack_s == duration``), the
bottleneck buckets partition 100% of the window, analysis is read-only
(same-seed traced runs stay byte-identical whether or not they are
analysed), and both export formats round-trip through ``load_trace``.
"""

import itertools
import json

import pytest

from repro import ConsumerGrid
from repro.analysis import pipeline_graph
from repro.observe import (
    SpanRecord,
    TraceEvent,
    Tracer,
    analyze,
    bottlenecks,
    compare_runs,
    critical_path,
    doctor,
    load_trace,
    render_diff,
    utilization,
    write_trace,
)
from repro.p2p import LAN_PROFILE


def _reset_global_ids():
    from repro.mobility import cache
    from repro.p2p import discovery

    cache._fetch_ids = itertools.count(1)
    discovery._request_ids = itertools.count(1)


def _traced_run(n_workers=4, seed=7, iterations=8):
    _reset_global_ids()
    grid = ConsumerGrid(
        n_workers=n_workers,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
        trace=True,
    )
    report = grid.run(pipeline_graph(4), iterations=iterations)
    return grid, report


class TestCriticalPath:
    def test_accounting_identity(self):
        grid, _ = _traced_run()
        cp = critical_path(grid.sim.tracer)
        window = cp["window"]
        assert window["root"] == "sim.run"
        assert cp["segments"], "a real run must have work on the path"
        # the issue's acceptance identity, exact by construction
        assert cp["path_s"] + cp["slack_s"] == pytest.approx(
            window["duration_s"], abs=1e-12
        )

    def test_segments_ordered_and_non_overlapping(self):
        grid, _ = _traced_run()
        segs = critical_path(grid.sim.tracer)["segments"]
        for earlier, later in zip(segs, segs[1:]):
            assert earlier["end"] <= later["start"] + 1e-12
        assert all(s["duration_s"] >= 0 for s in segs)
        assert all(s["wait_s"] >= 0 for s in segs)

    def test_deterministic(self):
        a, _ = _traced_run()
        b, _ = _traced_run()
        assert critical_path(a.sim.tracer) == critical_path(b.sim.tracer)

    def test_empty_tracer(self):
        cp = critical_path(Tracer())
        assert cp["segments"] == [] and cp["path_s"] == 0.0

    def test_zero_duration_leaf_terminates(self):
        # A dur:0 span satisfies its own predecessor predicate
        # (end == start); backward chaining must not loop on it.
        tracer = Tracer()
        clock = {"now": 0.0}
        tracer.attach_clock(lambda: clock["now"])
        run = tracer.begin("sim.run", category="simkernel", track="sim")
        clock["now"] = 1.0
        zero = tracer.begin("worker.exec", category="service", track="worker-0")
        zero.end()  # zero-duration, strictly inside the window
        clock["now"] = 2.0
        work = tracer.begin("worker.exec", category="service", track="worker-1")
        clock["now"] = 3.0
        work.end()
        run.end()
        cp = critical_path(tracer)
        assert len(cp["segments"]) == 2
        assert cp["path_s"] + cp["slack_s"] == pytest.approx(
            cp["window"]["duration_s"], abs=1e-12
        )


class TestBottlenecks:
    def test_buckets_partition_window(self):
        grid, _ = _traced_run()
        bn = bottlenecks(grid.sim.tracer)
        assert sum(bn["seconds"].values()) == pytest.approx(
            bn["window"]["duration_s"], abs=1e-9
        )
        assert sum(bn["fractions"].values()) == pytest.approx(1.0, abs=1e-9)
        assert bn["seconds"]["compute"] > 0

    def test_all_buckets_present(self):
        grid, _ = _traced_run()
        bn = bottlenecks(grid.sim.tracer)
        assert set(bn["seconds"]) == {
            "compute", "repo_fetch", "peer_fetch", "discovery",
            "redispatch_recovery", "verification_overhead", "network_transfer",
        }

    def test_module_fetch_aggregate_sums_sub_buckets(self):
        grid, _ = _traced_run()
        bn = bottlenecks(grid.sim.tracer)
        assert bn["module_fetch_s"] == pytest.approx(
            bn["seconds"]["repo_fetch"] + bn["seconds"]["peer_fetch"],
            abs=1e-12,
        )
        # The seed protocol fetches from the repository only.
        assert bn["seconds"]["peer_fetch"] == 0.0


class TestUtilization:
    def test_workers_and_fairness(self):
        grid, _ = _traced_run(n_workers=4)
        u = utilization(grid.sim.tracer)
        assert len(u["workers"]) == 4
        assert 0.0 < u["fairness"] <= 1.0 + 1e-12
        for track in u["workers"]:
            row = u["tracks"][track]
            assert row["busy_s"] > 0
            assert row["busy_s"] + row["idle_s"] + row[
                "unavailable_s"
            ] == pytest.approx(u["window"]["duration_s"], abs=1e-9)
        assert sorted(u["stragglers"]) == sorted(u["workers"])

    def test_offline_time_counted_from_liveness_instants(self):
        tracer = Tracer()
        clock = {"now": 0.0}
        tracer.attach_clock(lambda: clock["now"])
        run = tracer.begin("sim.run", category="simkernel", track="sim")
        exec_span = tracer.begin(
            "worker.exec", category="service", track="worker-0"
        )
        clock["now"] = 2.0
        exec_span.end()
        tracer.instant("peer.offline", category="p2p", track="worker-0")
        clock["now"] = 8.0
        tracer.instant("peer.online", category="p2p", track="worker-0")
        clock["now"] = 10.0
        run.end()
        row = utilization(tracer)["tracks"]["worker-0"]
        assert row["unavailable_s"] == pytest.approx(6.0)
        assert row["busy_s"] == pytest.approx(2.0)
        assert row["idle_s"] == pytest.approx(2.0)

    def test_network_set_online_emits_liveness_instants(self):
        grid, _ = _traced_run(n_workers=2)
        net = grid.transport
        net.set_online("worker-0", False)
        net.set_online("worker-0", False)  # no-op: no duplicate instant
        net.set_online("worker-0", True)
        names = [
            e.name for e in grid.sim.tracer.events
            if e.track == "worker-0" and e.name.startswith("peer.")
        ]
        assert names == ["peer.offline", "peer.online"]

    def test_late_tracer_install_snapshots_offline_peers(self, tmp_path):
        # With the late trace_out opt-in, liveness transitions before
        # the tracer install are unrecorded; the install must seed a
        # peer.offline instant so the analyzer counts the peer as
        # unavailable, not idle, from window start.
        _reset_global_ids()
        grid = ConsumerGrid(
            n_workers=2,
            seed=7,
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-5,
        )
        grid.transport.set_online("worker-1", False)  # before tracing starts
        grid.run(
            pipeline_graph(2),
            iterations=2,
            workers=["worker-0"],
            trace_out=str(tmp_path / "late.jsonl"),
        )
        offline = [
            e for e in grid.sim.tracer.events
            if e.track == "worker-1" and e.name == "peer.offline"
        ]
        assert offline, "install-time snapshot must record the offline peer"


def _assert_tracer_records(view):
    """A loaded file holds the tracer's own record types, one model."""
    assert view.spans and view.events
    assert all(type(s) is SpanRecord for s in view.spans)
    assert all(type(e) is TraceEvent for e in view.events)
    assert all(isinstance(e.attrs, tuple) for e in view.events)


class TestLoadTrace:
    def test_jsonl_round_trip_exact(self, tmp_path):
        grid, _ = _traced_run()
        path = tmp_path / "run.jsonl"
        write_trace(grid.sim.tracer, str(path))
        assert analyze(str(path)) == analyze(grid.sim.tracer)
        _assert_tracer_records(load_trace(str(path)))

    def test_chrome_round_trip_close(self, tmp_path):
        grid, _ = _traced_run()
        path = tmp_path / "run.json"
        write_trace(grid.sim.tracer, str(path))
        live = critical_path(grid.sim.tracer)
        loaded = critical_path(str(path))
        # Chrome export quantises to microseconds; identities still hold.
        assert loaded["path_s"] == pytest.approx(live["path_s"], abs=1e-5)
        assert loaded["path_s"] + loaded["slack_s"] == pytest.approx(
            loaded["window"]["duration_s"], abs=1e-9
        )
        _assert_tracer_records(load_trace(str(path)))

    def test_single_record_jsonl(self, tmp_path):
        # One line parses as a single JSON dict; it must still be
        # recognised as a JSONL record, not rejected as a bad document.
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({
            "type": "span", "id": 1, "parent": None, "name": "worker.exec",
            "category": "service", "track": "worker-0",
            "start": 0.0, "end": 1.0, "attrs": {},
        }) + "\n")
        view = load_trace(str(path))
        assert [s.name for s in view.spans] == ["worker.exec"]

        path = tmp_path / "one_event.jsonl"
        path.write_text(json.dumps({
            "type": "event", "name": "net.send", "category": "p2p",
            "track": "worker-0", "time": 0.5, "attrs": {},
        }) + "\n")
        view = load_trace(str(path))
        assert not view.spans and [e.name for e in view.events] == ["net.send"]

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"not": "a trace"}))
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_accepts_view_passthrough(self):
        grid, _ = _traced_run()
        view = load_trace(grid.sim.tracer)
        assert load_trace(view) is view

    def test_live_tracer_is_viewed_not_copied(self):
        grid, _ = _traced_run()
        tracer = grid.sim.tracer
        view = load_trace(tracer)
        assert view.spans[0] is tracer.spans[0]
        assert view.events[0] is tracer.events[0]


class TestReadOnly:
    def test_analysis_leaves_trace_bytes_identical(self, tmp_path):
        a, _ = _traced_run()
        analyze(a.sim.tracer)
        doctor(a.sim.tracer)
        pa = tmp_path / "a.json"
        write_trace(a.sim.tracer, str(pa))
        b, _ = _traced_run()
        pb = tmp_path / "b.json"
        write_trace(b.sim.tracer, str(pb))
        assert pa.read_bytes() == pb.read_bytes()


class TestCompareRuns:
    def test_self_diff_is_flat(self):
        a, _ = _traced_run()
        b, _ = _traced_run()
        diff = compare_runs(a.sim.tracer, b.sim.tracer)
        assert diff["regressions"] == []
        assert diff["wall"]["delta_pct"] == 0.0
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []

    def test_slower_run_flagged(self):
        fast, _ = _traced_run(iterations=8)
        slow, _ = _traced_run(iterations=24)
        diff = compare_runs(fast.sim.tracer, slow.sim.tracer,
                            threshold_pct=5.0)
        assert diff["wall"]["delta_pct"] > 5.0
        assert diff["regressions"]
        text = render_diff(diff)
        assert "critical path" in text

    def test_diff_from_files(self, tmp_path):
        a, _ = _traced_run(iterations=8)
        b, _ = _traced_run(iterations=24)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a.sim.tracer, str(pa))
        write_trace(b.sim.tracer, str(pb))
        assert compare_runs(str(pa), str(pb))["wall"]["delta_pct"] == (
            compare_runs(a.sim.tracer, b.sim.tracer)["wall"]["delta_pct"]
        )


class TestDoctor:
    def test_report_sections(self):
        grid, _ = _traced_run()
        text = doctor(grid.sim.tracer)
        for needle in ("critical path", "utilization", "bottleneck"):
            assert needle in text.lower()
        # the report quotes the identity: path + slack == window
        assert "sim.run" in text

    def test_empty_trace_does_not_crash(self):
        assert isinstance(doctor(Tracer()), str)


class TestAnalyzeBundle:
    def test_bundle_keys(self):
        grid, _ = _traced_run()
        bundle = analyze(grid.sim.tracer)
        assert set(bundle) == {
            "window", "critical_path", "utilization", "bottlenecks",
            "counts", "incidents",
        }
        assert bundle["incidents"] == []  # no health monitor on this run
        assert bundle["counts"]["spans"] > 0

    def test_json_serialisable(self):
        grid, _ = _traced_run()
        json.dumps(analyze(grid.sim.tracer), sort_keys=True)
