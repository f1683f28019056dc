"""Edge-case tests for the simulation kernel's condition/interrupt corners."""

import pytest

from repro.simkernel import Interrupt, ProcessError, Simulator


class TestConditionFailures:
    def test_any_of_fails_if_member_fails_first(self):
        sim = Simulator()
        ok = sim.timeout(10.0)
        bad = sim.event()
        seen = []

        def waiter(sim):
            try:
                yield sim.any_of([ok, bad])
            except ValueError as exc:
                seen.append(str(exc))

        sim.process(waiter(sim))
        sim.call_at(1.0, lambda: bad.fail(ValueError("boom")))
        sim.run()
        assert seen == ["boom"]

    def test_all_of_fails_fast(self):
        sim = Simulator()
        slow = sim.timeout(100.0)
        bad = sim.event()
        times = []

        def waiter(sim):
            try:
                yield sim.all_of([slow, bad])
            except RuntimeError:
                times.append(sim.now)

        sim.process(waiter(sim))
        sim.call_at(2.0, lambda: bad.fail(RuntimeError("x")))
        sim.run(until=3.0)
        assert times == [2.0]

    def test_any_of_ignores_late_failure_after_success(self):
        sim = Simulator()
        fast = sim.timeout(1.0, value="ok")
        bad = sim.event()
        got = []

        def waiter(sim):
            result = yield sim.any_of([fast, bad])
            got.append(sorted(result.values()))

        sim.process(waiter(sim))
        sim.call_at(5.0, lambda: bad.fail(RuntimeError("late")))
        sim.run()
        assert got == [["ok"]]

    def test_condition_rejects_foreign_events(self):
        sim1, sim2 = Simulator(), Simulator()
        with pytest.raises(ProcessError):
            sim1.any_of([sim1.event(), sim2.event()])


class TestInterruptCorners:
    def test_interrupt_cause_is_carried(self):
        sim = Simulator()
        causes = []

        def sleeper(sim):
            try:
                yield sim.timeout(50.0)
            except Interrupt as intr:
                causes.append(intr.cause)

        proc = sim.process(sleeper(sim))
        sim.call_at(1.0, lambda: proc.interrupt({"reason": "screensaver off"}))
        sim.run()
        assert causes == [{"reason": "screensaver off"}]

    def test_double_interrupt_second_while_handling(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                log.append("first")
                try:
                    yield sim.timeout(100.0)
                except Interrupt:
                    log.append("second")

        proc = sim.process(sleeper(sim))
        sim.call_at(1.0, lambda: proc.interrupt())
        sim.call_at(2.0, lambda: proc.interrupt())
        sim.run()
        assert log == ["first", "second"]

    def test_process_waiting_on_process_interrupted(self):
        sim = Simulator()
        events = []

        def child(sim):
            yield sim.timeout(100.0)
            return "child-done"

        def parent(sim, child_proc):
            try:
                yield child_proc
            except Interrupt:
                events.append(("parent-interrupted", sim.now))

        child_proc = sim.process(child(sim))
        parent_proc = sim.process(parent(sim, child_proc))
        sim.call_at(3.0, lambda: parent_proc.interrupt())
        sim.run(until=10.0)
        assert events == [("parent-interrupted", 3.0)]
        assert child_proc.is_alive  # the child was not affected


class TestClockCorners:
    def test_zero_delay_timeout_fires_now(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        fired = []
        sim.timeout(0.0).callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_peek_tracks_head(self):
        sim = Simulator()
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim._queue.peek() == 3.0

    def test_run_until_exact_boundary_inclusive(self):
        sim = Simulator()
        hits = []
        sim.timeout(5.0).callbacks.append(lambda e: hits.append(sim.now))
        sim.run(until=5.0)
        assert hits == [5.0]
