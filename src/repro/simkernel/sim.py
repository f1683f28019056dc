"""A deterministic discrete-event simulation kernel.

This module is the foundation every simulated subsystem (the P2P network,
volunteer churn, batch queues) is built on.  It provides:

* :class:`Simulator` — the event loop with a floating-point clock,
* :class:`Event` — one-shot triggerable events carrying a value or error,
* :class:`Timeout` — an event that fires after a simulated delay,
* :class:`Process` — generator-based coroutines that ``yield`` events,
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
        # head bucket rather than going through _schedule().
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


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

    Born triggered and pushed once; processing it runs ``fn(*args)``.
    The callbacks list is only materialised if somebody asks for it —
    almost nobody waits on a ``call_at`` event, and a swarm keeps one of
    these in flight per message.
    """

    __slots__ = ("_fn", "_args", "_callbacks")

    def __init__(self, sim: "Simulator", when: float, fn: Callable[..., Any], args: tuple):
        self.sim = sim
        self._state = _TRIGGERED
        self._value = None
        self._exc = None
        self._fn = fn
        self._args = args
        self._callbacks: Optional[list[Callable[[Event], None]]] = None
        sim._queue.push(when, self)

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
        self._rngs = RngRegistry(seed)
        self.events_executed = 0
        self._last_id = 0
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

    @property
    def seed(self) -> int:
        return self._rngs.seed

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
        hot paths: ``call_at(t, self._deliver, message)`` allocates one
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
        return _Call(self, now + float(delay), fn, args)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` to fire ``delay`` sim seconds from now.

        Raises :class:`~repro.simkernel.errors.SimTimeError` (a
        :class:`~repro.simkernel.errors.SimError`) for negative *or NaN*
        delays — NaN compares false against everything, so a plain
        ``delay < 0`` check let it through silently and corrupted the
        queue order.
        """
        if delay == 0.0:
            self._queue.push(self.now, event)
        elif delay > 0.0:
            self._queue.push(self.now + delay, event)
        else:
            raise SimTimeError(f"negative or NaN delay {delay!r}")

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue.peek()

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={len(self._queue)})"


# Deliberately at module bottom: queues.py needs Event/Simulator above,
# and Simulator.__init__ only dereferences CalendarQueue at call time.
from .queues import CalendarQueue  # noqa: E402
