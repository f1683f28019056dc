"""Unit tests for repro.observe: tracer spans, no-op overhead."""

import pytest

from repro.observe import NullTracer, Tracer
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

    def test_sim_run_span_recorded(self):
        sim = Simulator(seed=0, tracer=Tracer())
        sim.call_at(5.0, lambda: None)
        sim.run()
        runs = [s for s in sim.tracer.spans if s.name == "sim.run"]
        assert runs and runs[0].finished
