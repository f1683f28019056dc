"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    EventStateError,
    Interrupt,
    ProcessError,
    SimTimeError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim.timeout(-1.0)


def test_nan_timeout_rejected():
    # Regression: NaN fails every comparison, so `delay < 0` guards let
    # it through silently and corrupt queue ordering downstream.  The
    # kernel guards with `not delay >= 0` to catch NaN too.
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim.timeout(float("nan"))


def test_negative_schedule_delay_rejected():
    # Regression: _schedule() used to silently accept negative delays,
    # scheduling events in the past and breaking clock monotonicity.
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim._schedule(sim.event(), delay=-0.5)
    with pytest.raises(SimTimeError):
        sim._schedule(sim.event(), delay=float("nan"))
    # The rejected schedules left the queue untouched.
    assert sim.peek() == float("inf")
    # A legal delay on the same simulator still works afterwards.
    sim.timeout(1.5)
    sim.run()
    assert sim.now == 1.5


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimTimeError):
        sim.run(until=1.0)


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        ev = sim.timeout(1.0)
        ev.callbacks.append(lambda _e, tag=tag: order.append(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append(value)

    sim.process(waiter(sim, ev))
    sim.call_at(2.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventStateError):
        ev.succeed(2)
    with pytest.raises(EventStateError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(EventStateError):
        _ = ev.value


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            seen.append(str(exc))

    sim.process(waiter(sim, ev))
    ev.fail(ValueError("boom"))
    sim.run()
    assert seen == ["boom"]


def test_process_return_value_via_run():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(worker(sim))
    assert sim.run(until=proc) == 42


def test_process_exception_propagates_through_run():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("worker died")

    proc = sim.process(worker(sim))
    with pytest.raises(RuntimeError, match="worker died"):
        sim.run(until=proc)


def test_process_bad_yield_is_a_process_error():
    sim = Simulator()

    def worker(sim):
        yield "not an event"

    proc = sim.process(worker(sim))
    with pytest.raises(ProcessError):
        sim.run(until=proc)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(ProcessError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_waits_on_another_process():
    sim = Simulator()
    trace = []

    def child(sim):
        yield sim.timeout(5.0)
        trace.append(("child", sim.now))
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        trace.append(("parent", sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert trace == [("child", 5.0), ("parent", 5.0, "child-result")]


def test_interrupt_reaches_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    proc = sim.process(sleeper(sim))
    sim.call_at(3.0, lambda: proc.interrupt("churn"))
    sim.run()
    assert log == [(3.0, "churn")]


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(100.0)

    proc = sim.process(sleeper(sim))
    sim.call_at(1.0, lambda: proc.interrupt())
    with pytest.raises(Interrupt):
        sim.run(until=proc)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(ProcessError):
        proc.interrupt()


def test_interrupted_process_not_resumed_by_original_event():
    """After interrupt, the original timeout firing must not resume the proc."""
    sim = Simulator()
    wakeups = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            wakeups.append("timeout")
        except Interrupt:
            wakeups.append("interrupt")
            yield sim.timeout(50.0)
            wakeups.append("after")

    proc = sim.process(sleeper(sim))
    sim.call_at(1.0, lambda: proc.interrupt())
    sim.run()
    assert wakeups == ["interrupt", "after"]
    assert sim.now == 51.0


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def waiter(sim):
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        done = yield sim.any_of([t1, t2])
        results.append((sim.now, sorted(done.values())))

    sim.process(waiter(sim))
    sim.run()
    assert results == [(2.0, ["fast"])]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def waiter(sim):
        ts = [sim.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        done = yield sim.all_of(ts)
        results.append((sim.now, sorted(done.values())))

    sim.process(waiter(sim))
    sim.run()
    assert results == [(3.0, [1.0, 2.0, 3.0])]


def test_all_of_empty_is_immediate():
    sim = Simulator()
    done = []

    def waiter(sim):
        yield sim.all_of([])
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [0.0]


def test_yield_already_processed_event():
    sim = Simulator()
    ev = sim.timeout(0.0, value="early")
    sim.run()
    got = []

    def late(sim, ev):
        value = yield ev
        got.append(value)

    sim.process(late(sim, ev))
    sim.run()
    assert got == ["early"]


def test_run_until_event_with_drained_queue_raises():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(ProcessError):
        sim.run(until=ev)


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimTimeError):
        sim.call_at(1.0, lambda: None)


def test_rejected_call_at_leaves_queue_untouched():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    sim.timeout(1.0)
    for when in (1.0, float("nan")):
        with pytest.raises(SimTimeError):
            sim.call_at(when, lambda: None)
    assert sim.peek() == 6.0
    sim.run()
    assert sim.events_executed == 2  # the two timeouts, nothing else


def test_call_at_passes_args():
    sim = Simulator()
    got = []
    sim.call_at(2.0, lambda *a: got.append((sim.now, a)), "x", 3)
    sim.call_at(1.0, got.append, "bare")
    sim.run()
    assert got == ["bare", (2.0, ("x", 3))]


def test_call_at_keeps_fifo_order_among_same_time_events():
    sim = Simulator()
    order = []
    ev = sim.event()
    ev.callbacks.append(lambda _e: order.append("succeed"))
    sim.call_at(0.0, order.append, "call-1")
    sim.timeout(0.0).callbacks.append(lambda _e: order.append("timeout-1"))
    ev.succeed()
    sim.call_at(0.0, order.append, "call-2")
    sim.timeout(0.0).callbacks.append(lambda _e: order.append("timeout-2"))
    sim.call_at(1.0, order.append, "later")
    sim.run()
    assert order == ["call-1", "timeout-1", "succeed", "call-2", "timeout-2", "later"]


def test_call_at_event_callbacks_run_after_fn_in_order():
    sim = Simulator()
    order = []
    ev = sim.call_at(1.0, order.append, "fn")
    ev.callbacks.append(lambda e: order.append(("cb-1", e is ev, e.processed)))
    ev.callbacks.append(lambda e: order.append(("cb-2", e is ev, e.processed)))
    assert ev.triggered and not ev.processed
    sim.run()
    assert order == ["fn", ("cb-1", True, True), ("cb-2", True, True)]


def test_run_until_call_at_event_returns():
    sim = Simulator()
    got = []
    ev = sim.call_at(3.0, got.append, "ran")
    sim.timeout(10.0)
    assert sim.run(until=ev) is None
    assert got == ["ran"] and sim.now == 3.0


def test_process_can_wait_on_call_at_event():
    sim = Simulator()
    got = []

    def waiter(sim):
        yield sim.call_at(2.0, got.append, "fn")
        got.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert got == ["fn", 2.0]


def test_call_at_exception_propagates_out_of_run():
    sim = Simulator()
    got = []

    def boom(tag):
        raise RuntimeError(tag)

    sim.call_at(1.0, boom, "bad call")
    sim.call_at(2.0, got.append, "after")
    with pytest.raises(RuntimeError, match="bad call"):
        sim.run()
    # The failing event was consumed; the rest of the schedule survives.
    assert sim.now == 1.0 and sim.events_executed == 1
    sim.run()
    assert got == ["after"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 30.0]),  # tie-heavy
            st.booleans(),  # reschedule a follow-up from inside the call
        ),
        max_size=40,
    )
)
def test_call_at_args_form_replays_like_the_lambda_form(schedule):
    def replay(args_form: bool):
        sim = Simulator()
        log = []

        def fn(i):
            log.append((sim.now, i))
            if i < len(schedule) and schedule[i][1]:
                plan(sim.now + schedule[i][0], i + len(schedule))

        def plan(when, i):
            if args_form:
                sim.call_at(when, fn, i)
            else:
                sim.call_at(when, lambda i=i: fn(i))

        for i, (when, _again) in enumerate(schedule):
            plan(when, i)
        sim.run()
        return log, sim.events_executed

    assert replay(True) == replay(False)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.timeout(1.0)
    sim.run()
    assert sim.events_executed == 4
