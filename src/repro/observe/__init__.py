"""Observability layer — tracing, metrics and timeline exports (§3.2).

"users should be able to obtain progress of their running network" — the
paper's disconnected-view requirement, §3.2.  This package generalises
the minimal progress stream into a first-class observability layer:

* :mod:`repro.observe.tracer` — a run-scoped :class:`Tracer` producing
  hierarchical spans and point events over *simulated* time, plus the
  zero-overhead :class:`NullTracer` every :class:`~repro.simkernel.Simulator`
  carries by default;
* :mod:`repro.observe.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms with deterministic bucketing;
* :mod:`repro.observe.export` — exporters: Chrome/Perfetto trace JSON,
  a JSONL event log, a plain-text per-peer timeline, and a metrics
  snapshot dump;
* :mod:`repro.observe.analyze` — trace analytics over a live tracer or
  an exported trace: critical-path extraction, per-peer utilization,
  bottleneck attribution, run diffing, and the ``doctor()`` report
  behind ``repro analyze``;
* :mod:`repro.observe.telemetry` — *live* telemetry: the sim-clock
  :class:`TelemetrySampler` ring buffer;
* :mod:`repro.observe.health` — online anomaly detectors over sampler
  rows emitting severity-ranked :class:`Incident` records, scored
  against fault-injection ground truth, plus the ``repro top``
  dashboard renderer.

Tracing is strictly *passive*: it never schedules simulation events and
never draws randomness, so a traced run is bit-identical to an untraced
one and two traced runs with the same seed emit identical trace files.

See ``docs/observability.md`` for the full guide.
"""

from .analyze import (
    TraceView,
    analyze,
    bottlenecks,
    compare_runs,
    critical_path,
    doctor,
    load_trace,
    render_diff,
    utilization,
)
from .export import (
    chrome_trace,
    jsonl_lines,
    text_timeline,
    trace_summary,
    write_metrics,
    write_trace,
)
from .health import (
    HealthMonitor,
    Incident,
    default_detectors,
    health_incidents,
    render_top,
    score_against_faults,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    geometric_bounds,
)
from .telemetry import TelemetrySampler
from .tracer import NullTracer, SpanHandle, SpanRecord, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "Incident",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "SpanHandle",
    "SpanRecord",
    "TelemetrySampler",
    "TraceEvent",
    "TraceView",
    "Tracer",
    "analyze",
    "bottlenecks",
    "chrome_trace",
    "compare_runs",
    "critical_path",
    "default_detectors",
    "doctor",
    "geometric_bounds",
    "health_incidents",
    "jsonl_lines",
    "load_trace",
    "render_diff",
    "render_top",
    "score_against_faults",
    "text_timeline",
    "trace_summary",
    "utilization",
    "write_metrics",
    "write_trace",
]
