"""End-to-end observability: full grid runs emit valid, deterministic traces.

Covers the issue's acceptance criteria: a traced galaxy run produces a
Perfetto-loadable Chrome trace with spans from all four instrumented
layers; two same-seed runs emit byte-identical traces; a chaos run's
trace contains the controller's redispatch spans.
"""

import itertools
import json

from repro import ConsumerGrid, TaskGraph, chaos
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.apps.inspiral import build_inspiral_graph
from repro.p2p import LAN_PROFILE

WORKERS = [f"worker-{i}" for i in range(6)]


def _reset_global_ids():
    """Rewind process-global id counters so same-seed runs emit the
    same deployment/fetch/query ids (they are process-scoped, not
    seed-scoped; two fresh processes agree without this)."""
    from repro.mobility import cache
    from repro.p2p import discovery

    cache._fetch_ids = itertools.count(1)
    discovery._request_ids = itertools.count(1)


def _galaxy_run(tmp_path, tag):
    _reset_global_ids()
    generate_snapshots(n_frames=6, n_particles=120, seed=11,
                       register_as=f"obs-ds-{tag}")
    g = build_galaxy_graph(f"obs-ds-{tag}", resolution=16, policy="parallel")
    grid = ConsumerGrid(n_workers=4, seed=42, trace=True,
                        heartbeat_interval=5.0)
    out = tmp_path / f"trace-{tag}.json"
    report = grid.run(g, iterations=6, trace_out=str(out))
    return report, out


class TestGalaxyTrace:
    def test_trace_covers_four_layers(self, tmp_path):
        report, out = _galaxy_run(tmp_path, "layers")
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert {"simkernel", "p2p", "mobility", "service"} <= cats
        # spans (not just instants) from every required layer
        span_cats = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert {"simkernel", "p2p", "mobility", "service"} <= span_cats
        # Perfetto basics: complete events carry ts/dur/pid/tid
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert {"ts", "dur", "pid", "tid", "name"} <= set(e)

    def test_report_tracing_section(self, tmp_path):
        report, _ = _galaxy_run(tmp_path, "report")
        tr = report.tracing
        assert tr["enabled"] is True
        assert tr["spans"] > 0 and tr["events"] > 0
        # counters live with their components (metrics_out), not here
        assert "metrics" not in tr
        assert set(tr["spans_by_category"]) >= {
            "mobility", "p2p", "service", "simkernel"
        }

    def test_same_seed_traces_byte_identical(self, tmp_path):
        _, a = _galaxy_run(tmp_path, "detA")
        _, b = _galaxy_run(tmp_path, "detB")
        ta = a.read_text().replace("obs-ds-detA", "obs-ds-X")
        tb = b.read_text().replace("obs-ds-detB", "obs-ds-X")
        assert ta == tb

    def test_tracing_does_not_change_behaviour(self, tmp_path):
        _reset_global_ids()
        generate_snapshots(n_frames=6, n_particles=120, seed=11,
                           register_as="obs-ds-plain")
        g = build_galaxy_graph("obs-ds-plain", resolution=16,
                               policy="parallel")
        untraced = ConsumerGrid(n_workers=4, seed=42,
                                heartbeat_interval=5.0).run(g, iterations=6)
        _reset_global_ids()
        traced_grid = ConsumerGrid(n_workers=4, seed=42, trace=True,
                                   heartbeat_interval=5.0)
        traced = traced_grid.run(g, iterations=6)
        assert traced.makespan == untraced.makespan
        assert traced.messages_sent == untraced.messages_sent
        assert untraced.tracing == {"enabled": False, "spans": 0,
                                    "open_spans": 0, "events": 0}


class TestChaosTrace:
    def test_chaos_run_trace_has_redispatch_spans(self, tmp_path):
        plan = chaos("moderate", seed=5, workers=WORKERS, start=5.0,
                     horizon=40.0)
        grid = ConsumerGrid(
            n_workers=6,
            seed=901,
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=5e-3,
            heartbeat_interval=1.0,
            suspect_after_missed=2,
            retry_timeout=30.0,
            retry_interval=2.0,
            fault_plan=plan,
            trace=True,
        )
        g = build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=4)
        out = tmp_path / "chaos.json"
        report = grid.run(g, iterations=10, run_until=100_000,
                          trace_out=str(out))
        assert report.recovery["redispatches"] >= 1
        doc = json.loads(out.read_text())  # valid Perfetto JSON
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        redispatches = [s for s in spans if s["name"] == "controller.redispatch"]
        assert redispatches, "chaos run must record redispatch spans"
        for s in redispatches:
            assert s["args"]["reason"] in ("suspicion", "timeout")
            assert s["args"]["outcome"] in (
                "completed", "superseded", "abandoned"
            )
        # chaos-tagged network events surface corruption/duplication
        tagged = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e.get("args", {}).get("chaos")
        ]
        assert tagged, "chaos windows must tag dropped/duplicated frames"


class TestMetricsOut:
    def test_untraced_run_writes_the_components_counters(self, tmp_path):
        g = TaskGraph("metrics")
        g.add_task("Wave", "Wave", frequency=8.0)
        g.add_task("Grapher", "Grapher")
        g.connect("Wave", 0, "Grapher", 0)
        grid = ConsumerGrid(n_workers=3, seed=7)
        path = tmp_path / "metrics.json"
        report = grid.run(g, iterations=4, metrics_out=str(path))
        assert report.tracing["enabled"] is False
        row = json.loads(path.read_text())
        assert row["sim"]["events"] == grid.sim.events_executed
        assert row["net"]["sent"] == grid.transport.stats.sent
        assert sorted(row["workers"]) == sorted(grid.workers)
        assert set(row) == {"t", "sim", "net", "workers", "detector", "reputation"}
