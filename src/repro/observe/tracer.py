"""Run-scoped hierarchical tracing over simulated time (§3.2).

"users should be able to obtain progress of their running network" —
§3.2.  The tracer is how every layer of the reproduction answers that:
instrumented call sites open **spans** (named intervals with a start and
end in *simulated* seconds, a parent span, a track — usually the peer id
— and structured attributes) or record **point events**.  Progress
views (:mod:`repro.service.monitor`) subscribe to the same event stream
rather than maintaining a parallel one, and exporters
(:mod:`repro.observe.export`) turn the record into Chrome/Perfetto
traces, JSONL logs and per-peer timelines.

Two implementations share one interface:

* :class:`Tracer` — records everything; ``enabled`` is True;
* :class:`NullTracer` — records nothing, ``enabled`` is False, and every
  method is a near-empty body: ``begin`` returns one shared no-op
  handle, ``metrics`` hands out one shared null instrument.  Every
  :class:`~repro.simkernel.sim.Simulator` carries its own by default.

One rule decides where a call site guards with ``if tracer.enabled:``.
It does when it runs per message, kernel event, iteration, vote, query,
frame, liveness flip or module request — the paths a gridbench rung or
workload times, where a disabled simulation should pay one attribute
load and a branch — or when the guarded block does more than call the
tracer.  Per-run, per-deploy, per-bind and per-fault sites call the
tracer unconditionally; that is what the null objects are for.

Tracing is passive by contract: no simulation events are scheduled, no
RNG streams are consumed, and time is only ever *read* from the
simulator clock.  Span ids come from a per-tracer counter, so two runs
with the same seed produce identical span tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .metrics import MetricsRegistry, NullMetricsRegistry

__all__ = ["SpanRecord", "TraceEvent", "SpanHandle", "Tracer", "NullTracer"]


@dataclass
class SpanRecord:
    """One named interval of simulated time."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    track: str
    start: float
    end: Optional[float] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One point event (zero duration)."""

    name: str
    category: str
    track: str
    time: float
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def info(self) -> dict[str, Any]:
        return dict(self.attrs)


class SpanHandle:
    """Open-span handle: close with :meth:`end` or as a context manager."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach (or overwrite) attributes on the open span."""
        self.record.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> None:
        """Close the span at the current simulated time."""
        self._tracer._end(self.record, attrs)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class _NullSpanHandle:
    """Shared do-nothing stand-in for :class:`SpanHandle`."""

    __slots__ = ()
    record = None

    def set(self, **attrs: Any) -> "_NullSpanHandle":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class _TracerBase:
    """Clock binding and subscriber dispatch shared by both tracers."""

    def __init__(self):
        self._clock: Callable[[], float] = lambda: 0.0
        #: (category-filter-or-None, callback) pairs, dispatch order = subscribe order
        self._subs: list[tuple[Optional[str], Callable[[TraceEvent], None]]] = []
        #: optional live-telemetry hook (see repro.observe.telemetry)
        self._sampler = None

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Bind the time source (the simulator does this on construction)."""
        self._clock = clock

    def attach_sampler(self, sampler) -> None:
        """Wire a :class:`~repro.observe.telemetry.TelemetrySampler` in.

        The sampler is polled from :meth:`Tracer.on_step` (one float
        comparison per executed event) and takes a snapshot row whenever
        the clock crosses a tick boundary.  Only a recording
        :class:`Tracer` drives it — install one via
        ``Simulator.install_sampler``.
        """
        self._sampler = sampler

    def now(self) -> float:
        return self._clock()

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        category: Optional[str] = None,
    ) -> None:
        """Deliver every point event (optionally of one category) to ``callback``.

        Subscription works on both tracer flavours — progress views stay
        live even when nothing is being recorded.
        """
        self._subs.append((category, callback))

    def _dispatch(self, event: TraceEvent) -> None:
        for category, callback in self._subs:
            if category is None or category == event.category:
                callback(event)


class Tracer(_TracerBase):
    """The recording tracer: spans, point events and a metrics registry."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans: list[SpanRecord] = []
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self._next_id = 1
        #: per-track stack of open span ids (implicit parenting)
        self._open: dict[str, list[SpanRecord]] = {}
        self._sim_instruments = None
        #: buffered per-tick queue depths, flushed into the histogram lazily
        self._step_depths: list[int] = []
        self.metrics.add_flush_hook(self._flush_step_metrics)

    # -- spans ---------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str = "app",
        track: str = "main",
        parent: Optional[SpanHandle] = None,
        **attrs: Any,
    ) -> SpanHandle:
        """Open a span; nested under the track's innermost open span.

        Pass ``parent`` to pin the parent explicitly (cross-track or
        cross-handler spans); otherwise the innermost span still open on
        the same track is the parent.
        """
        if parent is not None and parent.record is not None:
            parent_id = parent.record.span_id
        else:
            stack = self._open.get(track)
            parent_id = stack[-1].span_id if stack else None
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            category=category,
            track=track,
            start=self._clock(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(record)
        self._open.setdefault(track, []).append(record)
        return SpanHandle(self, record)

    #: alias: ``with tracer.span(...):`` reads better at call sites
    span = begin

    def _end(self, record: SpanRecord, attrs: dict[str, Any]) -> None:
        if record.end is not None:
            return  # idempotent: racing completion paths may both close
        record.end = self._clock()
        if attrs:
            record.attrs.update(attrs)
        stack = self._open.get(record.track)
        if stack and record in stack:
            # Usually LIFO; remove-by-identity tolerates overlapping
            # async spans on one track (e.g. concurrent module fetches).
            stack.remove(record)

    # -- point events --------------------------------------------------------
    def instant(
        self,
        name: str,
        category: str = "app",
        track: str = "main",
        time: Optional[float] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record a zero-duration event and fan it out to subscribers."""
        event = TraceEvent(
            name=name,
            category=category,
            track=track,
            time=self._clock() if time is None else time,
            attrs=tuple(attrs.items()),
        )
        self.events.append(event)
        if self._subs:
            self._dispatch(event)
        return event

    # -- simkernel hook ------------------------------------------------------
    #: queue-depth histogram boundaries (powers of two)
    QUEUE_DEPTH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

    def on_step(self, sim) -> None:
        """Per-event-loop-tick metrics; called by ``Simulator.step``.

        This is the hottest instrumented call in a traced run (once per
        executed event), so it only appends the current queue depth to a
        buffer; :meth:`_flush_step_metrics` — registered as a metrics
        flush hook, run by every ``metrics.snapshot()`` — materialises
        the counter increment and histogram observations in batch.  An
        attached telemetry sampler costs one comparison here and only
        does real work when the clock crosses a tick boundary.
        """
        self._step_depths.append(sim._queue._len)
        sampler = self._sampler
        if sampler is not None and sim.now >= sampler.next_tick:
            sampler.on_step(sim)

    def _flush_step_metrics(self) -> None:
        """Drain the buffered queue depths into the real instruments."""
        depths = self._step_depths
        if not depths:
            return
        instruments = self._sim_instruments
        if instruments is None:
            instruments = self._sim_instruments = (
                self.metrics.counter("sim.events_executed"),
                self.metrics.histogram("sim.queue_depth", self.QUEUE_DEPTH_BOUNDS),
            )
        instruments[0].inc(len(depths))
        instruments[1].observe_many(depths)
        self._step_depths = []

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Aggregate counts for :class:`~repro.service.controller.RunReport`."""
        spans_by_category: dict[str, int] = {}
        open_spans = 0
        for span in self.spans:
            spans_by_category[span.category] = spans_by_category.get(span.category, 0) + 1
            if span.end is None:
                open_spans += 1
        events_by_category: dict[str, int] = {}
        for event in self.events:
            events_by_category[event.category] = events_by_category.get(event.category, 0) + 1
        return {
            "enabled": True,
            "spans": len(self.spans),
            "open_spans": open_spans,
            "events": len(self.events),
            "spans_by_category": dict(sorted(spans_by_category.items())),
            "events_by_category": dict(sorted(events_by_category.items())),
            "metrics": self.metrics.snapshot(),
        }


class NullTracer(_TracerBase):
    """The default tracer: records nothing, still routes subscriptions.

    Point events are dispatched to subscribers (progress views must work
    without tracing) but never stored; spans are the shared no-op handle.
    """

    enabled = False

    #: shared empty record lists so exporters accept a NullTracer too
    spans: list[SpanRecord] = []
    events: list[TraceEvent] = []

    def __init__(self):
        super().__init__()
        self.metrics = NullMetricsRegistry()

    def begin(self, name, category="app", track="main", parent=None, **attrs):
        return _NULL_SPAN

    span = begin

    def instant(self, name, category="app", track="main", time=None, **attrs):
        if not self._subs:
            return None
        event = TraceEvent(
            name=name,
            category=category,
            track=track,
            time=self._clock() if time is None else time,
            attrs=tuple(attrs.items()),
        )
        self._dispatch(event)
        return event

    def on_step(self, sim) -> None:
        pass

    def summary(self) -> dict[str, Any]:
        return {"enabled": False, "spans": 0, "open_spans": 0, "events": 0}
