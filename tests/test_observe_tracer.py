"""Unit tests for repro.observe: tracer spans, metrics, no-op overhead."""

import pytest

from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    geometric_bounds,
)
from repro.simkernel import Simulator


class TestSpans:
    def test_span_records_times_and_attrs(self):
        t = Tracer()
        clock = {"now": 1.5}
        t.attach_clock(lambda: clock["now"])
        span = t.begin("work", category="service", track="w0", job=7)
        clock["now"] = 4.0
        span.end(outcome="done")
        rec = t.spans[0]
        assert (rec.start, rec.end) == (1.5, 4.0)
        assert rec.duration == 2.5
        assert rec.attrs == {"job": 7, "outcome": "done"}
        assert rec.finished

    def test_implicit_nesting_per_track(self):
        t = Tracer()
        outer = t.begin("outer", track="a")
        inner = t.begin("inner", track="a")
        other = t.begin("other", track="b")
        assert inner.record.parent_id == outer.record.span_id
        assert other.record.parent_id is None
        inner.end()
        sibling = t.begin("sibling", track="a")
        assert sibling.record.parent_id == outer.record.span_id

    def test_explicit_parent_overrides_stack(self):
        t = Tracer()
        a = t.begin("a", track="x")
        t.begin("b", track="x")
        c = t.begin("c", track="x", parent=a)
        assert c.record.parent_id == a.record.span_id

    def test_overlapping_async_spans_close_by_identity(self):
        t = Tracer()
        first = t.begin("fetch", track="w")
        second = t.begin("fetch", track="w")
        first.end()  # not LIFO
        third = t.begin("next", track="w")
        # second is still the innermost open span
        assert third.record.parent_id == second.record.span_id

    def test_end_is_idempotent(self):
        t = Tracer()
        clock = {"now": 0.0}
        t.attach_clock(lambda: clock["now"])
        span = t.begin("once", track="w")
        clock["now"] = 1.0
        span.end()
        clock["now"] = 9.0
        span.end(late=True)
        assert t.spans[0].end == 1.0
        assert "late" not in t.spans[0].attrs

    def test_context_manager_closes(self):
        t = Tracer()
        with t.span("cm", track="w"):
            pass
        assert t.spans[0].finished

    def test_span_ids_deterministic(self):
        ids = []
        for _ in range(2):
            t = Tracer()
            t.begin("a", track="x").end()
            t.begin("b", track="y").end()
            ids.append([s.span_id for s in t.spans])
        assert ids[0] == ids[1] == [1, 2]


class TestInstants:
    def test_instant_records_and_dispatches(self):
        t = Tracer()
        seen = []
        t.subscribe(seen.append, category="progress")
        t.instant("tick", category="progress", track="c", n=1)
        t.instant("noise", category="p2p", track="c")
        assert len(t.events) == 2
        assert [e.name for e in seen] == ["tick"]
        assert seen[0].info == {"n": 1}

    def test_unfiltered_subscriber_sees_everything(self):
        t = Tracer()
        seen = []
        t.subscribe(seen.append)
        t.instant("a", category="x")
        t.instant("b", category="y")
        assert [e.name for e in seen] == ["a", "b"]


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        g = reg.gauge("depth")
        g.set(3.0)
        g.set(1.0)
        snap = reg.snapshot()
        assert snap["n"] == {"type": "counter", "value": 5}
        assert snap["depth"]["value"] == 1.0 and snap["depth"]["max"] == 3.0

    def test_histogram_bucketing_boundaries(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 1000.0):
            h.observe(v)
        # bisect_left: v == bound lands in that bound's own bucket, so
        # bucket k counts bounds[k-1] < v <= bounds[k]
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.vmin == 0.5 and h.vmax == 1000.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_histogram_determinism(self):
        vals = [0.001 * i**2 for i in range(200)]
        snaps = []
        for _ in range(2):
            h = Histogram(bounds=geometric_bounds(1e-3, 10.0, 6))
            for v in vals:
                h.observe(v)
            snaps.append(h.snapshot())
        assert snaps[0] == snaps[1]

    def test_observe_many_int_matches_sequential(self):
        import numpy as np

        vals = np.arange(0, 50, dtype=np.int64) % 7
        batched = Histogram(bounds=(1.0, 3.0, 5.0))
        batched.observe_many(vals)
        sequential = Histogram(bounds=(1.0, 3.0, 5.0))
        for v in vals:
            sequential.observe(float(v))
        assert batched.snapshot() == sequential.snapshot()

    def test_observe_many_float_dtype_falls_back(self):
        # Float batches must take the sequential path so the running
        # total is bit-identical to repeated observe() calls.
        import numpy as np

        vals = np.array([0.1, 0.2, 0.3, 1.5, 9.75, 0.7], dtype=np.float64)
        batched = Histogram(bounds=(1.0, 10.0))
        batched.observe_many(vals)
        sequential = Histogram(bounds=(1.0, 10.0))
        for v in vals:
            sequential.observe(float(v))
        assert batched.total == sequential.total  # exact, not approx
        assert batched.snapshot() == sequential.snapshot()

    def test_observe_many_float_list_falls_back(self):
        batched = Histogram(bounds=(1.0, 10.0))
        batched.observe_many([0.25, 2.5, 25.0])
        assert batched.counts == [1, 1, 1]
        assert batched.count == 3
        assert batched.vmin == 0.25 and batched.vmax == 25.0

    def test_observe_many_empty_inputs(self):
        import numpy as np

        h = Histogram(bounds=(1.0, 10.0))
        h.observe_many([])
        h.observe_many(np.array([], dtype=np.int64))
        h.observe_many(np.array([], dtype=np.float64))
        assert h.count == 0 and h.total == 0.0
        snap = h.snapshot()
        assert snap["min"] is None and snap["max"] is None

    def test_observe_many_int_updates_extrema(self):
        import numpy as np

        h = Histogram(bounds=(1.0, 10.0))
        h.observe(5.0)
        h.observe_many(np.array([2, 17], dtype=np.int64))
        assert h.vmin == 2 and h.vmax == 17
        assert h.count == 3

    def test_geometric_bounds_strictly_increasing(self):
        bounds = geometric_bounds(1e-6, 10.0**0.5, 19)
        assert len(bounds) == 19
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_registry_get_or_create_and_type_confusion(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_and_gauge_types(self):
        reg = MetricsRegistry()
        assert isinstance(reg.counter("c"), Counter)
        assert isinstance(reg.gauge("g"), Gauge)

    def test_null_registry_is_inert(self):
        reg = NullMetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(2.0)
        assert reg.snapshot() == {}


class TestNullTracerOverhead:
    def test_simulator_defaults_to_null_tracer(self):
        sim = Simulator(seed=0)
        assert isinstance(sim.tracer, NullTracer)
        assert sim.tracer.enabled is False

    def test_each_simulator_gets_its_own_null_tracer(self):
        a, b = Simulator(seed=0), Simulator(seed=1)
        assert a.tracer is not b.tracer
        a.tracer.subscribe(lambda e: None)
        assert not b.tracer._subs

    def test_null_tracer_records_nothing(self):
        t = NullTracer()
        span = t.begin("x", track="w")
        span.set(a=1)
        span.end()
        t.instant("y", track="w")
        assert t.spans == [] and t.events == []
        assert t.summary()["enabled"] is False

    def test_null_instant_still_reaches_subscribers(self):
        t = NullTracer()
        seen = []
        t.subscribe(seen.append, category="progress")
        t.instant("tick", category="progress", track="c", n=3)
        assert [e.info for e in seen] == [{"n": 3}]
        assert t.events == []  # dispatched, never stored

    def test_disabled_guards_skip_recording_paths(self):
        """A grid run with a booby-trapped NullTracer proves hot sites
        never call the recording API while tracing is off."""

        class ExplodingNullTracer(NullTracer):
            def on_step(self, sim):
                raise AssertionError("on_step called while disabled")

        # Recording methods that *are* allowed on a NullTracer: begin
        # (returns the shared null handle) and instant (subscriber
        # fan-out).  on_step must be skipped via the enabled guard.
        from repro import ConsumerGrid, TaskGraph

        g = TaskGraph("noop")
        g.add_task("Wave", "Wave", frequency=8.0)
        g.add_task("Grapher", "Grapher")
        g.connect("Wave", 0, "Grapher", 0)

        grid = ConsumerGrid(n_workers=1, seed=3)
        grid.sim.install_tracer(ExplodingNullTracer())
        report = grid.run(g, iterations=2)
        assert report.iterations == 2


class TestInstallTracer:
    def test_install_preserves_subscribers(self):
        sim = Simulator(seed=0)
        seen = []
        sim.tracer.subscribe(seen.append, category="progress")
        tracer = Tracer()
        sim.install_tracer(tracer)
        assert sim.tracer is tracer
        sim.tracer.instant("go", category="progress")
        assert [e.name for e in seen] == ["go"]
        assert len(tracer.events) == 1

    @pytest.mark.parametrize("make", [lambda: None, Tracer], ids=["null", "recording"])
    def test_reinstalling_the_current_tracer_changes_nothing(self, make):
        sim = Simulator(seed=0, tracer=make())
        seen = []
        sim.tracer.subscribe(seen.append, category="progress")
        tracer, clock = sim.tracer, sim.tracer._clock
        sim.install_tracer(tracer)
        assert sim.tracer is tracer and tracer._clock is clock
        assert len(tracer._subs) == 1
        tracer.instant("go", category="progress")
        assert [e.name for e in seen] == ["go"]

    def test_on_step_metrics_accumulate(self):
        sim = Simulator(seed=0, tracer=Tracer())
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run()
        snap = sim.tracer.metrics.snapshot()
        assert snap["sim.events_executed"]["value"] >= 2
        assert "sim.queue_depth" in snap

    def test_sim_run_span_recorded(self):
        sim = Simulator(seed=0, tracer=Tracer())
        sim.call_at(5.0, lambda: None)
        sim.run()
        runs = [s for s in sim.tracer.spans if s.name == "sim.run"]
        assert runs and runs[0].finished
