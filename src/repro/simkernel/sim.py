"""A deterministic discrete-event simulation kernel.

This module is the foundation every simulated subsystem (the P2P network,
volunteer churn, the controller/worker protocol) is built on.  It
provides:

* :class:`Simulator` — the event loop with a floating-point clock,
* :class:`Event` — one-shot triggerable events carrying a value or error,
* :class:`Timeout` — an event that fires after a simulated delay,
* :class:`Process` — generator-based coroutines that ``yield`` events,
* :meth:`Simulator.drive` — a loop that only ever waits for a delay,
  run with no process: it yields delays, not events,
* :class:`AnyOf` / :class:`AllOf` — composite wait conditions.

The design follows the classic SimPy shape but is self-contained (no
third-party dependency) and strictly deterministic: simultaneous events
fire in schedule (FIFO) order.  Pending events live in a
:class:`~repro.simkernel.queues.CalendarQueue` — a bucket-per-timestamp
calendar whose pop order is bit-identical to the previous global heap's
``(time, seq)`` order; see ``docs/performance.md`` for the complexity
model and the determinism contract.

All event classes carry ``__slots__``: simulations at swarm scale
allocate millions of events, and slotted instances skip the per-object
``__dict__`` (smaller, faster to create, lighter on the GC).  Subclasses
must therefore declare their own ``__slots__`` too — adding ad-hoc
attributes to events is not supported.

Example
-------
>>> sim = Simulator()
>>> def hello(sim, log):
...     yield sim.timeout(5.0)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.process(hello(sim, log))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable
from typing import Any, Callable, Optional

from ..observe.tracer import NullTracer
from .errors import EventStateError, Interrupt, ProcessError, SimTimeError
from .rng import RngRegistry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
    "check_horizon",
]

# Event lifecycle states.
_PENDING = 0  # not yet triggered
_TRIGGERED = 1  # value set, callbacks scheduled but not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once, after which its callbacks run at the current
    simulation time.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (or error)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value, or raise the stored failure."""
        if not self.triggered:
            raise EventStateError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise EventStateError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        # Hot path: triggering at the current time is the single most
        # frequent kernel operation, so push straight into the queue's
        # head bucket.
        sim = self.sim
        sim._queue.push(sim.now, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state != _PENDING:
            raise EventStateError(f"{self!r} already triggered")
        self._exc = exc
        self._state = _TRIGGERED
        sim = self.sim
        sim._queue.push(sim.now, self)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that succeeds automatically after ``delay`` sim-time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:
            # Catches negative delays *and* NaN (which compares False
            # both ways and would otherwise corrupt the queue order).
            raise SimTimeError(f"negative or NaN timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._value = value
        self._state = _TRIGGERED
        sim._queue.push(sim.now + self.delay, self)


class _Call(Event):
    """A scheduled plain call: what :meth:`Simulator.call_at` enqueues.

    Born triggered and pushed once by its maker; processing it runs
    ``fn(*args)``.  The callbacks list is only materialised if somebody
    asks for it — almost nobody waits on a ``call_at`` event.
    """

    __slots__ = ("_fn", "_args", "_callbacks")

    def __init__(self, sim: "Simulator", fn: Callable[..., Any], args: tuple):
        self.sim = sim
        self._state = _TRIGGERED
        self._value = None
        self._exc = None
        self._fn = fn
        self._args = args
        self._callbacks: Optional[list[Callable[[Event], None]]] = None

    @property
    def callbacks(self) -> list[Callable[[Event], None]]:
        # Shadows the (unused) Event.callbacks slot with a lazy list.
        callbacks = self._callbacks
        if callbacks is None:
            callbacks = self._callbacks = []
        return callbacks

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        self._fn(*self._args)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for cb in callbacks:
                cb(self)


class _Initialize(Event):
    """Internal event used to start a process on the next step."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._value = None
        self._state = _TRIGGERED
        self.callbacks.append(process._resume)
        sim._queue.push(sim.now, self)


class Process(Event):
    """A generator-based simulated process.

    The wrapped generator yields :class:`Event` instances; the process
    suspends until each yielded event triggers, then receives the event's
    value via ``send`` (or its exception via ``throw``).  The process is
    itself an event that triggers when the generator returns (value = the
    ``StopIteration`` value) or raises.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None):
        if not isinstance(generator, Generator):
            raise ProcessError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        # Detach from whatever we were waiting on so that the original
        # event's trigger does not also resume us later.
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._target = None
        interrupt_ev = Event(self.sim)
        interrupt_ev.callbacks.append(self._resume)
        interrupt_ev.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._exc is not None:
                next_ev = self._generator.throw(event._exc)
            else:
                next_ev = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process as a failure.
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_ev, Event):
            err = ProcessError(
                f"process {self.name!r} yielded {next_ev!r}; processes must "
                "yield Event instances (e.g. sim.timeout(...))"
            )
            self._generator.close()
            self.fail(err)
            return
        if next_ev.sim is not self.sim:
            self._generator.close()
            self.fail(ProcessError("yielded event belongs to a different Simulator"))
            return
        self._target = next_ev
        if next_ev.processed:
            # Already-processed events resume the process on the next step.
            redo = Event(self.sim)
            redo.callbacks.append(self._resume)
            if next_ev._exc is not None:
                redo.fail(next_ev._exc)
            else:
                redo.succeed(next_ev._value)
        else:
            next_ev.callbacks.append(self._resume)


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ProcessError("condition mixes events from different simulators")
        # Events whose callbacks have fired (i.e. actually happened in sim
        # time).  A Timeout is "triggered" from construction but has not
        # happened yet, so triggered-ness alone is not a usable signal.
        self._done: set[Event] = set()
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._observe(ev)
            else:
                ev.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._done.add(event)
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev in self._done}


class AnyOf(_Condition):
    """Triggers when *any* constituent event succeeds (or one fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return bool(self._done)


class AllOf(_Condition):
    """Triggers when *all* constituent events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._done) == len(self.events)


def check_horizon(until: float) -> None:
    """Raise :class:`SimTimeError` naming ``until`` unless it is a finite
    time: a NaN horizon would stop a run at once, an infinite one never."""
    if not math.isfinite(until):
        raise SimTimeError(f"run(until={until!r}) is not a finite time")


class Simulator:
    """The discrete-event loop: a clock plus an ordered event queue.

    Parameters
    ----------
    seed:
        Root seed for the simulator's :class:`RngRegistry`; all stochastic
        components should draw via :meth:`rng`.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer`.  Defaults to a
        fresh :class:`~repro.observe.tracer.NullTracer`, which records
        nothing but still routes ``progress`` subscriptions.  Tracing
        is passive: it never schedules events or consumes randomness, so
        traced and untraced runs are bit-identical.
    """

    def __init__(self, seed: int = 0, tracer=None):
        self.now: float = 0.0
        self._queue = CalendarQueue()
        #: ``last_at(when)``: the pending event queued last at time
        #: ``when``, or ``None``.  A caller that keeps an event it
        #: scheduled at ``when`` learns from ``last_at(when) is event``
        #: whether adding work to that event is the same as scheduling
        #: new work at ``when``: nothing else would run in between.  The
        #: event being processed is no longer pending.  It is the queue's
        #: own method, so a lookup is one call.
        self.last_at: Callable[[float], Optional[Event]] = self._queue.last_at
        self._rngs = RngRegistry(seed)
        self.events_executed = 0
        self._last_id = 0
        # The drive cohort last scheduled (see drive): its loops, its
        # instant and its kernel event.  -1.0 is no instant.
        self._cohort: list[Generator] = []
        self._cohort_at = -1.0
        self._cohort_event: Optional[Event] = None
        self.tracer = tracer if tracer is not None else NullTracer()
        self.tracer.attach_clock(lambda: self.now)

    def install_tracer(self, tracer) -> None:
        """Swap the tracer in, keeping existing progress subscriptions.

        Installing the current tracer again changes nothing.
        """
        if tracer is self.tracer:
            return
        tracer.attach_clock(lambda: self.now)
        tracer._subs.extend(self.tracer._subs)
        if tracer._sampler is None:
            tracer._sampler = self.tracer._sampler
        self.tracer = tracer

    def install_sampler(self, sampler) -> None:
        """Attach a telemetry sampler, enabling tracing if necessary.

        Sampling rides the traced per-event hook (``Tracer.on_step``),
        so a recording :class:`~repro.observe.tracer.Tracer` is required
        — one is installed automatically when the simulator still runs
        its default :class:`~repro.observe.tracer.NullTracer`.  The
        sampler's tick grid is anchored at the current clock.
        """
        if not self.tracer.enabled:
            from ..observe.tracer import Tracer

            self.install_tracer(Tracer())
        sampler.bind(self)
        self.tracer.attach_sampler(sampler)

    # -- randomness ---------------------------------------------------------
    def rng(self, name: str):
        """Named deterministic random stream (see :class:`RngRegistry`)."""
        return self._rngs.stream(name)

    def draws(self, name: str) -> Callable[[], float]:
        """The stream ``name``'s doubles in ``[0, 1)``, one per call, drawn
        in blocks (see :meth:`RngRegistry.draws`)."""
        return self._rngs.draws(name)

    def next_id(self) -> int:
        """An id unique within this simulator: 1, 2, ...  An id that can
        steer a run (a tie broken by ``id % n``) is counted per grid, not
        per process, so same-seed grids in one process trace identically."""
        self._last_id += 1
        return self._last_id

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event; trigger it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` units of simulated time from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a process from a generator; returns the Process event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Prefer the ``*args`` form to a ``lambda`` or nested function on
        hot paths: ``call_at(t, self._expire, key)`` allocates one
        event and one tuple, where a closure adds a function object and
        a cell per captured variable for the GC to track.

        The returned event is processed when ``fn`` has run; callbacks
        appended to it run after ``fn``, in order.  Raises
        :class:`~repro.simkernel.errors.SimTimeError` when ``when`` is
        in the past or NaN.
        """
        now = self.now
        delay = when - now
        if not delay >= 0:
            # ``not >=`` also catches NaN, which compares False both ways.
            raise SimTimeError(f"call_at({when!r}) is in the past or NaN (now={now})")
        # now + (when - now), not ``when``: the float a Timeout of that
        # delay lands on, so timestamps and tie order match process code.
        call = _Call(self, fn, args)
        self._queue.push(now + float(delay), call)
        return call

    def call_exact(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """:meth:`call_at` landing on the float ``when`` itself, not on
        ``now + (when - now)``: the two differ, by one float, only for a
        ``when`` summed from an instant other than ``now``."""
        if not when >= self.now:
            raise SimTimeError(f"call_exact({when!r}) is in the past or NaN (now={self.now})")
        call = _Call(self, fn, args)
        self._queue.push(float(when), call)
        return call

    def call_first(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at the current time, ahead of every event
        already queued at it: the slot of an event that was due before
        them.  A callback whose work is cut short by an exception uses it
        to leave the rest of that work first in line for a resumed run."""
        call = _Call(self, fn, args)
        self._queue.push_front(self.now, call)
        return call

    def drive(self, generator: Generator) -> None:
        """Run a loop that only ever waits for a delay, without a process.

        The generator yields delays in simulated seconds where process
        code would ``yield sim.timeout(delay)``.  It starts at the
        current time, in the queue slot a :class:`Process` start takes,
        and each delay resumes it at ``now + delay`` — the float that
        ``Timeout(delay)`` lands on, so times and tie order are a
        process's.  A negative or NaN delay is refused as ``Timeout``
        refuses it: the :class:`SimTimeError` is raised into the
        generator where it yielded.  Returning ends the loop and
        schedules nothing; an exception ends this loop only, as it ends
        a process nobody waits on, and the run goes on.

        Loops are resumed in *cohorts*: one ``call_at`` event resumes
        every loop of a cohort, in the order they joined.  A loop whose
        wake-up lands on the instant where a cohort is the last event
        queued joins that cohort, which is the same as queueing its own
        event right behind it — nothing could run in between (the
        argument of :meth:`~repro.p2p.network.SimNetwork._arrive`).
        Otherwise it starts a new cohort; a lone loop is a cohort of one.
        So heartbeat loops that beat on the same instants cost one
        kernel event per round, not one per loop.
        """
        self._wake(self.now, generator)

    def _wake(self, when: float, generator: Generator) -> None:
        """Resume ``generator`` at ``when``: in the cohort queued last
        there, or in a new one."""
        if when == self._cohort_at and self._queue.last_at(when) is self._cohort_event:
            self._cohort.append(generator)
            return
        cohort = [generator]
        call = self._cohort_event = _Call(self, self._resume_cohort, (cohort,))
        self._queue.push(when, call)
        self._cohort, self._cohort_at = cohort, when

    def _resume_cohort(self, loops: list[Generator]) -> None:
        """Resume a cohort's loops in the order they joined."""
        rest = iter(loops)
        try:
            for generator in rest:
                self._drive(generator)
        except BaseException:
            # A resumed run resumes the rest first, as their own events,
            # queued ahead of everything else at this instant, would.
            unresumed = list(rest)
            if unresumed:
                self.call_first(self._resume_cohort, unresumed)
            raise

    def _drive(self, generator: Generator) -> None:
        """One resumption of a :meth:`drive` loop."""
        error = None
        while True:
            try:
                delay = generator.send(None) if error is None else generator.throw(error)
            except Exception:
                return  # returned (StopIteration) or failed: the loop is over
            if delay >= 0:  # False for NaN
                break
            error = SimTimeError(f"negative or NaN timeout delay {delay!r}")
        self._wake(self.now + float(delay), generator)

    def step(self) -> None:
        """Advance the clock to the next event and run its callbacks."""
        when, event = self._queue.pop()
        self.now = when
        self.events_executed += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.on_step(self)
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain), a number (absolute sim time), or
        an :class:`Event` — in the last case the event's value is returned
        (its failure re-raised).  A number that is NaN, infinite or in the
        past raises :class:`SimTimeError`.
        """
        if until is not None and not isinstance(until, Event):
            check_horizon(until)
        tracer = self.tracer
        if not tracer.enabled:
            return self._run(until)
        with tracer.span("sim.run", category="simkernel", track="sim"):
            return self._run(until)

    def _run(self, until: float | Event | None) -> Any:
        # The three drain loops below are the kernel's hottest code;
        # they inline step() with the queue pop and tracer check hoisted
        # into locals.  Behaviour is identical to calling step() in a
        # loop (the property tests and BENCH baselines pin this down).
        queue = self._queue
        pop = queue.pop
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not queue._len:
                    raise ProcessError(
                        "simulation queue drained before the awaited event fired"
                    )
                self.step()
            return stop.value
        if until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimTimeError(f"run(until={horizon}) is in the past")
            while queue._len and queue.peek() <= horizon:
                when, event = pop()
                self.now = when
                self.events_executed += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.on_step(self)
                event._run_callbacks()
            self.now = max(self.now, horizon)
            return None
        while queue._len:
            when, event = pop()
            self.now = when
            self.events_executed += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.on_step(self)
            event._run_callbacks()
        return None


# Deliberately at module bottom: queues.py needs Event/Simulator above,
# and Simulator.__init__ only dereferences CalendarQueue at call time.
from .queues import CalendarQueue  # noqa: E402
