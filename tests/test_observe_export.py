"""Exporter round-trips: Chrome/Perfetto JSON, JSONL, text timelines."""

import json

import numpy as np

from repro.observe import (
    NullTracer,
    Tracer,
    chrome_trace,
    jsonl_lines,
    telemetry_row,
    text_timeline,
    write_metrics,
    write_trace,
)
from repro.simkernel import Simulator


def _sample_tracer() -> Tracer:
    t = Tracer()
    clock = {"now": 0.0}
    t.attach_clock(lambda: clock["now"])
    run = t.begin("sim.run", category="simkernel", track="sim")
    clock["now"] = 1.0
    dep = t.begin("worker.deploy", category="service", track="worker-0", deployment="dep-1")
    clock["now"] = 2.5
    dep.end(outcome="deployed")
    t.instant("net.send", category="p2p", track="controller", kind="group-exec")
    clock["now"] = 4.0
    run.end()
    t.begin("dangling", category="service", track="worker-1")  # stays open
    return t


class TestChromeTrace:
    def test_structure_and_units(self):
        doc = chrome_trace(_sample_tracer())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == 3 and len(instants) == 1
        deploy = next(e for e in spans if e["name"] == "worker.deploy")
        assert deploy["ts"] == 1.0 * 1e6 and deploy["dur"] == 1.5 * 1e6
        assert deploy["args"]["outcome"] == "deployed"
        # thread metadata names every track
        named = {m["args"]["name"] for m in metas}
        assert named == {"sim", "worker-0", "worker-1", "controller"}

    def test_metadata_sorts_first_then_time(self):
        events = chrome_trace(_sample_tracer())["traceEvents"]
        phases = [e["ph"] for e in events]
        first_non_meta = phases.index(next(p for p in phases if p != "M"))
        assert all(p == "M" for p in phases[:first_non_meta])
        ts = [e["ts"] for e in events[first_non_meta:]]
        assert ts == sorted(ts)

    def test_unfinished_spans_flagged(self):
        doc = chrome_trace(_sample_tracer())
        dangling = next(
            e for e in doc["traceEvents"] if e.get("name") == "dangling"
        )
        assert dangling["args"]["unfinished"] is True and dangling["dur"] == 0.0

    def test_track_tids_deterministic(self):
        a = chrome_trace(_sample_tracer())
        b = chrome_trace(_sample_tracer())
        assert a == b

    def test_json_serialisable_with_numpy_attrs(self):
        t = Tracer()
        t.instant("x", track="w", count=np.int64(3), value=np.float64(2.5))
        payload = json.dumps(chrome_trace(t), sort_keys=True, default=lambda v: v.item())
        decoded = json.loads(payload)
        args = decoded["traceEvents"][-1]["args"]
        assert args == {"count": 3, "value": 2.5}

    def test_accepts_null_tracer(self):
        doc = chrome_trace(NullTracer())
        assert doc["traceEvents"] == []


class TestJsonl:
    def test_lines_parse_and_order(self):
        lines = jsonl_lines(_sample_tracer())
        records = [json.loads(line) for line in lines]
        assert all(r["type"] in ("span", "event") for r in records)
        times = [r.get("start", r.get("time")) for r in records]
        assert times == sorted(times)
        span = next(r for r in records if r.get("name") == "worker.deploy")
        assert span["attrs"] == {"deployment": "dep-1", "outcome": "deployed"}

    def test_round_trip_preserves_counts(self):
        t = _sample_tracer()
        records = [json.loads(line) for line in jsonl_lines(t)]
        assert len([r for r in records if r["type"] == "span"]) == len(t.spans)
        assert len([r for r in records if r["type"] == "event"]) == len(t.events)


class TestTextTimeline:
    def test_contains_tracks_and_nesting(self):
        text = text_timeline(_sample_tracer())
        assert "-- worker-0" in text and "-- sim" in text
        assert "worker.deploy" in text and "net.send" in text


class TestWriteTrace:
    def test_extension_sniffing(self, tmp_path):
        t = _sample_tracer()
        assert write_trace(t, str(tmp_path / "a.json")) == "chrome"
        assert write_trace(t, str(tmp_path / "a.jsonl")) == "jsonl"
        assert write_trace(t, str(tmp_path / "a.txt")) == "text"
        doc = json.loads((tmp_path / "a.json").read_text())
        assert "traceEvents" in doc
        for line in (tmp_path / "a.jsonl").read_text().splitlines():
            json.loads(line)

    def test_explicit_format_and_unknown(self, tmp_path):
        t = _sample_tracer()
        assert write_trace(t, str(tmp_path / "odd.dat"), fmt="chrome") == "chrome"
        try:
            write_trace(t, str(tmp_path / "x"), fmt="nope")
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError for unknown format")

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        write_trace(_sample_tracer(), str(p1))
        write_trace(_sample_tracer(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_trace_summary_matches_tracer():
    t = _sample_tracer()
    assert t.summary()["spans"] == 3
    assert t.summary()["open_spans"] == 1


class TestWriteTraceStrictExtensions:
    def test_unknown_extension_lists_supported(self, tmp_path):
        import pytest

        with pytest.raises(ValueError) as exc:
            write_trace(_sample_tracer(), str(tmp_path / "trace.csv"))
        message = str(exc.value)
        for extension in (".json", ".jsonl", ".txt", ".log"):
            assert extension in message
        assert "fmt=" in message

    def test_no_extension_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            write_trace(_sample_tracer(), str(tmp_path / "trace"))

    def test_log_extension_maps_to_text(self, tmp_path):
        assert write_trace(_sample_tracer(), str(tmp_path / "a.log")) == "text"
        assert "timeline" in (tmp_path / "a.log").read_text()

    def test_explicit_fmt_overrides_mismatched_extension(self, tmp_path):
        # .txt would sniff to text; fmt= must win and write Chrome JSON.
        path = tmp_path / "trace.txt"
        assert write_trace(_sample_tracer(), str(path), fmt="chrome") == "chrome"
        assert "traceEvents" in json.loads(path.read_text())

    def test_explicit_fmt_allows_unknown_extension(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert write_trace(_sample_tracer(), str(path), fmt="jsonl") == "jsonl"
        for line in path.read_text().splitlines():
            json.loads(line)


def _sample_row() -> dict:
    sim = Simulator(seed=0)
    sim.call_at(1.0, lambda: None)
    sim.run()
    return telemetry_row(sim, [
        ("net", lambda: {"sent": np.int64(3), "bytes_sent": 96}),
        ("workers", lambda: {"worker-0": {"queued": 0, "inflight": 1}}),
    ])


class TestWriteMetrics:
    def test_round_trip_matches_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        row = write_metrics(_sample_row(), str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(row, default=lambda v: v.item())
        )
        assert json.loads(path.read_text())["net"]["sent"] == 3
        assert row["sim"] == {"queue_depth": 0, "events": 1}

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_metrics(_sample_row(), str(p1))
        write_metrics(_sample_row(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_extension_rejected(self, tmp_path):
        import pytest

        target = tmp_path / "metrics.csv"
        with pytest.raises(ValueError) as exc:
            write_metrics(_sample_row(), str(target))
        message = str(exc.value)
        assert ".json" in message and "supported" in message
        assert not target.exists()  # rejected before any bytes hit disk

    def test_no_extension_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            write_metrics(_sample_row(), str(tmp_path / "metrics"))

    def test_case_insensitive_extension(self, tmp_path):
        path = tmp_path / "METRICS.JSON"
        row = write_metrics(_sample_row(), str(path))
        assert json.loads(path.read_text()).keys() == row.keys()


class TestSummaryAndTimelineEdgeCases:
    def test_empty_tracer_summary(self):
        t = Tracer()
        s = t.summary()
        assert s["spans"] == 0 and s["events"] == 0 and s["open_spans"] == 0
        assert s["spans_by_category"] == {}

    def test_empty_tracer_timeline(self):
        text = text_timeline(Tracer())
        assert text.startswith("timeline")
        assert text.endswith("\n")

    def test_unfinished_span_rendered_open_ended(self):
        t = Tracer()
        clock = {"now": 1.5}
        t.attach_clock(lambda: clock["now"])
        t.begin("worker.exec", category="service", track="w0")  # never ended
        text = text_timeline(t)
        assert "worker.exec" in text
        assert "…" in text  # open end marker
        assert t.summary()["open_spans"] == 1

    def test_zero_duration_run(self):
        t = Tracer()
        t.attach_clock(lambda: 0.0)
        t.begin("sim.run", category="simkernel", track="sim").end()
        text = text_timeline(t)
        assert "sim.run" in text
        s = t.summary()
        assert s["spans"] == 1 and s["open_spans"] == 0

    def test_narrow_width_truncates_rows(self):
        t = _sample_tracer()
        wide = text_timeline(t, width=100)
        narrow = text_timeline(t, width=10)
        assert len(narrow) <= len(wide)
        # every data row respects the clamp (header/track lines exempt)
        for line in narrow.splitlines():
            if line.startswith("  ["):
                assert len(line) <= 12
