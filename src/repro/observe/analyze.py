"""Trace analytics: critical path, utilization, bottlenecks, run diffing.

The tracer (:mod:`repro.observe.tracer`) answers *what happened*; this
module answers *why was the run slow*.  It consumes either a live
:class:`~repro.observe.tracer.Tracer` or an exported trace file (JSONL
or Chrome/Perfetto JSON, as written by
:func:`~repro.observe.export.write_trace`) and produces four analyses:

* :func:`critical_path` — the longest dependency chain of work segments
  from the start of the ``sim.run`` span to the last finisher, found by
  deterministic *last-finisher backward chaining*: start from the span
  that ends last, repeatedly hop to the latest span that ended at or
  before the current segment began.  Segments never overlap, so the
  chain satisfies the accounting identity
  ``path_s + slack_s == window duration`` exactly — slack is the time
  the chain spent *waiting* (message transfer, queueing) rather than
  working.
* :func:`utilization` — per-track (per-peer) busy/idle/unavailable
  accounting over merged leaf-span intervals, Jain's fairness index
  over the worker fleet, and a straggler ranking.
* :func:`bottlenecks` — wall-clock attribution into
  compute / repo-fetch / peer-fetch / revalidate / discovery /
  redispatch-recovery / network-transfer buckets by a priority sweep
  over span intervals.  The buckets partition the run window, so they
  always sum to 100 %; the three module-distribution buckets are also
  reported summed as ``module_fetch_s`` (the pre-split aggregate).
* :func:`compare_runs` — aligns two runs by span (name, track) and
  reports total/mean duration deltas plus headline run-window
  (simulated-time), critical-path and bottleneck regressions.

:func:`analyze` bundles the first three into one dict; :func:`doctor`
renders it as a terminal report (the ``repro analyze`` subcommand).

Everything here is **read-only**: analysing a live tracer mutates
nothing, so a traced run stays byte-identical whether or not it was
analysed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Union

from .tracer import SpanRecord, TraceEvent

__all__ = [
    "TraceView",
    "load_trace",
    "critical_path",
    "utilization",
    "bottlenecks",
    "analyze",
    "compare_runs",
    "doctor",
    "render_diff",
]

#: span names treated as *containers* (scheduling scaffolding) even when
#: they have no recorded children — they wrap other work and would
#: otherwise swallow the whole critical path.
_CONTAINER_NAMES = frozenset({"sim.run", "controller.run", "controller.deploy"})

#: bottleneck buckets in sweep priority order (first active wins);
#: ``network_transfer`` is the residual — in a discrete-event grid, time
#: with no categorised span open is time waiting on message delivery.
#: ``repo_fetch`` / ``peer_fetch`` / ``revalidate`` split the old
#: ``module_fetch`` bucket by where the bytes came from (the authority,
#: a replica peer, or nowhere — a digest check sufficed).
_BUCKETS = (
    "compute", "repo_fetch", "peer_fetch", "revalidate", "discovery",
    "redispatch_recovery", "verification_overhead",
)
#: the mobility sub-buckets; their sum is the legacy ``module_fetch``
#: total, reported as ``module_fetch_s`` alongside the partition.
_MODULE_BUCKETS = ("repo_fetch", "peer_fetch", "revalidate")
_RESIDUAL_BUCKET = "network_transfer"


@dataclass
class TraceView:
    """One run's trace records — a live tracer's own lists, or a file's."""

    spans: list[SpanRecord]
    events: list[TraceEvent]

    @property
    def tracks(self) -> list[str]:
        seen = {s.track for s in self.spans}
        seen.update(e.track for e in self.events)
        return sorted(seen)


# -- loading -----------------------------------------------------------------------


def _view_from_jsonl(lines: list[str]) -> TraceView:
    spans: list[SpanRecord] = []
    events: list[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("type") == "span":
            spans.append(
                SpanRecord(
                    span_id=int(rec["id"]),
                    parent_id=rec.get("parent"),
                    name=rec["name"],
                    category=rec.get("category", "app"),
                    track=rec.get("track", "main"),
                    start=float(rec["start"]),
                    end=None if rec.get("end") is None else float(rec["end"]),
                    attrs=rec.get("attrs", {}),
                )
            )
        elif rec.get("type") == "event":
            events.append(
                TraceEvent(
                    name=rec["name"],
                    category=rec.get("category", "app"),
                    track=rec.get("track", "main"),
                    time=float(rec["time"]),
                    attrs=tuple(rec.get("attrs", {}).items()),
                )
            )
    return TraceView(spans=spans, events=events)


def _view_from_chrome(doc: dict[str, Any]) -> TraceView:
    track_of: dict[int, str] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            track_of[ev["tid"]] = ev["args"]["name"]
    spans: list[SpanRecord] = []
    events: list[TraceEvent] = []
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        track = track_of.get(ev.get("tid"), str(ev.get("tid")))
        args = dict(ev.get("args", {}))
        if ph == "X":
            unfinished = bool(args.pop("unfinished", False))
            parent = args.pop("parent_span", None)
            start = ev["ts"] / 1e6
            spans.append(
                SpanRecord(
                    span_id=int(ev.get("id", len(spans) + 1)),
                    parent_id=parent,
                    name=ev["name"],
                    category=ev.get("cat", "app"),
                    track=track,
                    start=start,
                    end=None if unfinished else start + ev.get("dur", 0.0) / 1e6,
                    attrs=args,
                )
            )
        elif ph == "i":
            events.append(
                TraceEvent(
                    name=ev["name"],
                    category=ev.get("cat", "app"),
                    track=track,
                    time=ev["ts"] / 1e6,
                    attrs=tuple(args.items()),
                )
            )
    return TraceView(spans=spans, events=events)


def load_trace(source: Union[str, "TraceView", Any]) -> TraceView:
    """``source`` as a :class:`TraceView`.

    ``source`` may be a live tracer (anything with ``spans``/``events``
    record lists — the view holds those lists themselves, no copy), an
    already-built :class:`TraceView`, or a path to a
    trace file written by :func:`~repro.observe.export.write_trace` —
    ``.jsonl`` event logs and ``.json`` Chrome/Perfetto documents are
    both understood (sniffed from content, not just extension).
    """
    if isinstance(source, TraceView):
        return source
    if hasattr(source, "spans") and hasattr(source, "events"):
        return TraceView(source.spans, source.events)
    with open(source) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document — a JSONL event log parses line by line.
        return _view_from_jsonl(text.splitlines())
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _view_from_chrome(doc)
    if isinstance(doc, dict) and doc.get("type") in ("span", "event"):
        # A one-record JSONL log parses as a single JSON dict.
        return _view_from_jsonl(text.splitlines())
    if isinstance(doc, dict):
        raise ValueError(
            f"{source}: JSON document is not a Chrome/Perfetto trace "
            "(no 'traceEvents' key)"
        )
    # A single-line JSONL file parses as one JSON value; retry as JSONL.
    return _view_from_jsonl(text.splitlines())


# -- the analysis window ------------------------------------------------------------


def _run_window(view: TraceView) -> dict[str, Any]:
    """The analysis window: the longest ``sim.run`` span, or the extent.

    A grid session records one ``sim.run`` span per ``Simulator.run``
    call (construction settles, discovery, the distributed run); the
    longest one is the application run.
    """
    sim_runs = [s for s in view.spans if s.name == "sim.run" and s.finished]
    if sim_runs:
        root = max(sim_runs, key=lambda s: (s.duration, -s.span_id))
        return {
            "root": root.name,
            "root_span_id": root.span_id,
            "start": root.start,
            "end": root.end,
            "duration_s": root.duration,
        }
    times = [s.start for s in view.spans] + [e.time for e in view.events]
    times += [s.end for s in view.spans if s.end is not None]
    if not times:
        return {"root": None, "root_span_id": None, "start": 0.0, "end": 0.0,
                "duration_s": 0.0}
    start, end = min(times), max(times)
    return {"root": "<trace extent>", "root_span_id": None, "start": start,
            "end": end, "duration_s": end - start}


def _leaf_spans(view: TraceView, window: dict[str, Any]) -> list[SpanRecord]:
    """Finished work segments inside the window: spans with no child
    spans, excluding the scheduling containers."""
    parents = {s.parent_id for s in view.spans if s.parent_id is not None}
    lo, hi = window["start"], window["end"]
    leaves = [
        s
        for s in view.spans
        if s.finished
        and s.span_id not in parents
        and s.name not in _CONTAINER_NAMES
        and s.end > lo
        and s.start < hi
    ]
    if not leaves:  # degenerate traces: fall back to any finished span
        leaves = [
            s
            for s in view.spans
            if s.finished and s.name != "sim.run" and s.end > lo and s.start < hi
        ]
    return leaves


# -- critical path -----------------------------------------------------------------


def critical_path(source) -> dict[str, Any]:
    """The longest dependency chain of work segments through the run.

    Deterministic last-finisher backward chaining over leaf spans: the
    chain ends at the span that finishes last inside the run window;
    each predecessor is the span with the latest end at or before the
    current segment's start (ties broken by latest start, then lowest
    span id).  Chained segments never overlap, so

    ``path_s + slack_s == window duration``

    holds exactly: ``slack_s`` is the sum of each segment's ``wait_s``
    (the gap before it started — wire time, queueing) plus the tail gap
    between the last finisher and the window end.
    """
    view = load_trace(source)
    window = _run_window(view)
    lo, hi = window["start"], window["end"]
    leaves = _leaf_spans(view, window)
    empty = {
        "window": window,
        "segments": [],
        "path_s": 0.0,
        "slack_s": window["duration_s"],
        "tail_s": window["duration_s"],
    }
    if not leaves:
        return empty

    def _rank(span: SpanRecord) -> tuple[float, float, int]:
        return (span.end, span.start, -span.span_id)

    cur = max(leaves, key=_rank)
    chain: list[SpanRecord] = []
    visited: set[int] = set()
    while cur is not None:
        chain.append(cur)
        visited.add(cur.span_id)
        # A zero-duration span satisfies its own predecessor predicate
        # (end == start <= its own start), so exclude visited spans to
        # guarantee termination even on traces with dur:0 leaves.
        preds = [
            s
            for s in leaves
            if s.end <= cur.start and s.end > lo and s.span_id not in visited
        ]
        cur = max(preds, key=_rank) if preds else None
    chain.reverse()

    segments: list[dict[str, Any]] = []
    prev_end = lo
    for span in chain:
        start = max(span.start, lo)
        end = min(span.end, hi)
        segments.append(
            {
                "name": span.name,
                "track": span.track,
                "category": span.category,
                "start": start,
                "end": end,
                "duration_s": end - start,
                "wait_s": start - prev_end,
                "attrs": dict(span.attrs),
            }
        )
        prev_end = end
    tail = hi - prev_end
    path_s = sum(seg["duration_s"] for seg in segments)
    slack_s = sum(seg["wait_s"] for seg in segments) + tail
    return {
        "window": window,
        "segments": segments,
        "path_s": path_s,
        "slack_s": slack_s,
        "tail_s": tail,
    }


# -- utilization -------------------------------------------------------------------


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(a, b) for a, b in merged]


def _clip(start: float, end: float, lo: float, hi: float) -> Optional[tuple[float, float]]:
    a, b = max(start, lo), min(end, hi)
    return (a, b) if b > a else None


def _overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    total = 0.0
    for lo_a, hi_a in a:
        for lo_b, hi_b in b:
            total += max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
    return total


def _offline_intervals(
    view: TraceView, track: str, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Offline windows for a track from ``peer.offline``/``peer.online``
    events (recorded by :meth:`SimNetwork.set_online` when tracing)."""
    transitions = sorted(
        (e.time, e.name == "peer.online")
        for e in view.events
        if e.track == track and e.name in ("peer.offline", "peer.online")
    )
    out: list[tuple[float, float]] = []
    down_since: Optional[float] = None
    for time, up in transitions:
        if not up and down_since is None:
            down_since = time
        elif up and down_since is not None:
            clipped = _clip(down_since, time, lo, hi)
            if clipped:
                out.append(clipped)
            down_since = None
    if down_since is not None:
        clipped = _clip(down_since, hi, lo, hi)
        if clipped:
            out.append(clipped)
    return _merge_intervals(out)


def utilization(source) -> dict[str, Any]:
    """Per-peer busy/idle/unavailable accounting over the run window.

    ``busy`` is the merged union of a track's leaf spans; ``unavailable``
    is its offline time (minus any overlap with busy — an exec that was
    already in flight keeps computing); ``idle`` is the remainder.
    ``fairness`` is Jain's index over worker busy times — 1.0 is a
    perfectly balanced fleet, 1/n is one peer doing all the work.
    ``stragglers`` ranks the workers busiest-first.
    """
    view = load_trace(source)
    window = _run_window(view)
    lo, hi = window["start"], window["end"]
    duration = window["duration_s"]
    leaves = _leaf_spans(view, window)

    by_track: dict[str, list[SpanRecord]] = {}
    for span in leaves:
        by_track.setdefault(span.track, []).append(span)

    tracks: dict[str, dict[str, Any]] = {}
    for track in sorted(by_track):
        spans = by_track[track]
        intervals = _merge_intervals(
            [c for s in spans if (c := _clip(s.start, s.end, lo, hi))]
        )
        busy = sum(b - a for a, b in intervals)
        offline = _offline_intervals(view, track, lo, hi)
        unavailable = sum(b - a for a, b in offline) - _overlap(intervals, offline)
        unavailable = max(unavailable, 0.0)
        idle = max(duration - busy - unavailable, 0.0)
        execs = sum(1 for s in spans if s.name == "worker.exec")
        tracks[track] = {
            "busy_s": busy,
            "idle_s": idle,
            "unavailable_s": unavailable,
            "busy_fraction": busy / duration if duration > 0 else 0.0,
            "execs": execs,
            "spans": len(spans),
            "last_active": max(s.end for s in spans),
        }

    workers = [t for t, row in tracks.items() if row["execs"] > 0] or list(tracks)
    busy_times = [tracks[t]["busy_s"] for t in workers]
    n = len(busy_times)
    sq = sum(x * x for x in busy_times)
    fairness = (sum(busy_times) ** 2 / (n * sq)) if n and sq > 0 else 1.0
    stragglers = sorted(
        workers,
        key=lambda t: (-tracks[t]["busy_s"], -tracks[t]["last_active"], t),
    )
    return {
        "window": window,
        "tracks": tracks,
        "workers": workers,
        "fairness": fairness,
        "stragglers": stragglers,
    }


# -- bottleneck attribution --------------------------------------------------------


def _bucket_of(span: SpanRecord) -> Optional[str]:
    if span.name == "worker.exec":
        return "compute"
    if span.category == "mobility":
        # Split by how the fetch resolved: a digest match (no bytes), a
        # replica-peer transfer, or the repository itself.  Spans from
        # pre-split traces carry neither attr and land in repo_fetch —
        # the seed protocol only ever fetched from the repository.
        if span.attrs.get("outcome") == "revalidate":
            return "revalidate"
        if span.attrs.get("source") == "peer":
            return "peer_fetch"
        return "repo_fetch"
    if span.name in ("discovery.query", "pipe.bind"):
        return "discovery"
    if span.name == "controller.redispatch":
        return "redispatch_recovery"
    if span.name in ("verify.wait", "verify.recompute"):
        # Result-integrity idle time: first vote in hand, quorum (or a
        # local quiz recompute) still pending.  Lowest priority, so time
        # genuinely overlapped by compute stays attributed to compute.
        return "verification_overhead"
    return None


def bottlenecks(source) -> dict[str, Any]:
    """Attribute the run window's wall-clock to bottleneck buckets.

    A priority sweep over span intervals: at every moment the window is
    charged to the highest-priority bucket with an open span — compute,
    then the module-distribution buckets (repo-fetch, peer-fetch,
    revalidate), then discovery, then redispatch-recovery; moments with
    none open are charged to ``network_transfer`` (in this
    discrete-event model, nothing-open means the run is waiting on
    message delivery).  The buckets partition the window, so
    ``sum(seconds.values()) == window duration`` and the fractions sum
    to 1.  ``module_fetch_s`` reports the three module buckets summed —
    the pre-split aggregate, kept for trend comparisons.  Chaos-tagged
    drops and drop reasons ride along as supplementary counters.
    """
    view = load_trace(source)
    window = _run_window(view)
    lo, hi = window["start"], window["end"]
    duration = window["duration_s"]

    classified: dict[str, list[tuple[float, float]]] = {b: [] for b in _BUCKETS}
    for span in view.spans:
        if not span.finished:
            continue
        bucket = _bucket_of(span)
        if bucket is None:
            continue
        clipped = _clip(span.start, span.end, lo, hi)
        if clipped:
            classified[bucket].append(clipped)

    boundaries = {lo, hi}
    for intervals in classified.values():
        for a, b in intervals:
            boundaries.update((a, b))
    cuts = sorted(boundaries)
    seconds = {b: 0.0 for b in _BUCKETS}
    seconds[_RESIDUAL_BUCKET] = 0.0
    merged = {b: _merge_intervals(v) for b, v in classified.items()}
    for a, b in zip(cuts, cuts[1:]):
        width = b - a
        if width <= 0:
            continue
        mid = (a + b) / 2.0
        for bucket in _BUCKETS:
            if any(x <= mid < y for x, y in merged[bucket]):
                seconds[bucket] += width
                break
        else:
            seconds[_RESIDUAL_BUCKET] += width

    fractions = {
        b: (v / duration if duration > 0 else 0.0) for b, v in seconds.items()
    }
    drops: dict[str, int] = {}
    chaos_events = 0
    for event in view.events:
        info = event.info
        if event.name == "net.drop":
            reason = info.get("reason", "unknown")
            drops[reason] = drops.get(reason, 0) + 1
        if info.get("chaos"):
            chaos_events += 1
    return {
        "window": window,
        "seconds": seconds,
        "fractions": fractions,
        "module_fetch_s": sum(seconds[b] for b in _MODULE_BUCKETS),
        "drops": dict(sorted(drops.items())),
        "chaos_events": chaos_events,
    }


# -- the bundle --------------------------------------------------------------------


def _incident_overlay(view: TraceView) -> list[dict[str, Any]]:
    """``health.incident`` instants recorded by the live health monitor.

    (Extraction only — the detectors themselves live in
    :mod:`repro.observe.health`, which layers *above* this module.)
    """
    out = []
    for event in view.events:
        if event.name != "health.incident":
            continue
        attrs = dict(event.attrs)
        out.append({
            "time": event.time,
            "track": event.track,
            "kind": attrs.get("kind", "anomaly"),
            "severity": attrs.get("severity", "warning"),
            "message": attrs.get("message", ""),
        })
    out.sort(key=lambda i: (i["time"], i["kind"], i["track"]))
    return out


def analyze(source) -> dict[str, Any]:
    """Full analysis: window, critical path, utilization, bottlenecks.

    Traces from telemetered runs also carry the live health monitor's
    incidents under ``incidents`` (empty for untelemetered traces).
    """
    view = load_trace(source)
    return {
        "window": _run_window(view),
        "critical_path": critical_path(view),
        "utilization": utilization(view),
        "bottlenecks": bottlenecks(view),
        "incidents": _incident_overlay(view),
        "counts": {"spans": len(view.spans), "events": len(view.events)},
    }


# -- run diffing -------------------------------------------------------------------


def _span_aggregates(view: TraceView) -> dict[tuple[str, str], dict[str, float]]:
    agg: dict[tuple[str, str], dict[str, float]] = {}
    for span in view.spans:
        if not span.finished:
            continue
        row = agg.setdefault(
            (span.name, span.track), {"count": 0, "total_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.duration
    for row in agg.values():
        row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
    return agg


def _pct(a: float, b: float) -> Optional[float]:
    if a == 0:
        return None
    return (b - a) / a * 100.0


def compare_runs(a, b, threshold_pct: float = 5.0) -> dict[str, Any]:
    """Diff two runs, aligned by span (name, track).

    ``a`` is the baseline, ``b`` the candidate; positive deltas mean
    ``b`` is slower.  Returns headline deltas (run-window simulated
    time — the BENCH schema's ``sim_time_s``, *not* real wall-clock —
    critical path, slack, bottleneck buckets), per-span-group deltas sorted by
    largest absolute regression in total time, and ``regressions`` —
    the groups whose total slowed by more than ``threshold_pct``.
    """
    view_a, view_b = load_trace(a), load_trace(b)
    cp_a, cp_b = critical_path(view_a), critical_path(view_b)
    bn_a, bn_b = bottlenecks(view_a), bottlenecks(view_b)
    wall_a = cp_a["window"]["duration_s"]
    wall_b = cp_b["window"]["duration_s"]

    agg_a, agg_b = _span_aggregates(view_a), _span_aggregates(view_b)
    spans: list[dict[str, Any]] = []
    for key in sorted(set(agg_a) | set(agg_b)):
        ra, rb = agg_a.get(key), agg_b.get(key)
        name, track = key
        spans.append(
            {
                "name": name,
                "track": track,
                "a_count": ra["count"] if ra else 0,
                "b_count": rb["count"] if rb else 0,
                "a_total_s": ra["total_s"] if ra else 0.0,
                "b_total_s": rb["total_s"] if rb else 0.0,
                "delta_s": (rb["total_s"] if rb else 0.0)
                - (ra["total_s"] if ra else 0.0),
                "delta_pct": _pct(
                    ra["total_s"] if ra else 0.0, rb["total_s"] if rb else 0.0
                ),
            }
        )
    spans.sort(key=lambda r: (-abs(r["delta_s"]), r["name"], r["track"]))
    regressions = [
        r
        for r in spans
        if r["delta_pct"] is not None and r["delta_pct"] > threshold_pct
    ]
    return {
        "wall": {"a": wall_a, "b": wall_b, "delta_pct": _pct(wall_a, wall_b)},
        "critical_path": {
            "a": cp_a["path_s"],
            "b": cp_b["path_s"],
            "delta_pct": _pct(cp_a["path_s"], cp_b["path_s"]),
        },
        "slack": {
            "a": cp_a["slack_s"],
            "b": cp_b["slack_s"],
            "delta_pct": _pct(cp_a["slack_s"], cp_b["slack_s"]),
        },
        "bottlenecks": {
            bucket: {
                "a": bn_a["seconds"][bucket],
                "b": bn_b["seconds"][bucket],
                "delta_pct": _pct(bn_a["seconds"][bucket], bn_b["seconds"][bucket]),
            }
            for bucket in (*_BUCKETS, _RESIDUAL_BUCKET)
        },
        "only_in_a": sorted(
            f"{n}@{t}" for n, t in set(agg_a) - set(agg_b)
        ),
        "only_in_b": sorted(
            f"{n}@{t}" for n, t in set(agg_b) - set(agg_a)
        ),
        "spans": spans,
        "regressions": regressions,
        "threshold_pct": threshold_pct,
    }


# -- text reports ------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(headers: list[str], rows: list[tuple], title: str) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def doctor(source, max_segments: int = 30) -> str:
    """Render the full analysis as a terminal report.

    Sections: the run window, the critical path (up to ``max_segments``
    segments, longest runs of work first elided last), per-peer
    utilization, and the bottleneck breakdown.  The critical-path
    accounting identity is restated in the footer so eyeballs can check
    it: path + slack = window duration.
    """
    result = analyze(source)
    window = result["window"]
    cp = result["critical_path"]
    util = result["utilization"]
    bn = result["bottlenecks"]

    out: list[str] = []
    out.append(
        f"run doctor — window {window['root']} "
        f"[{window['start']:.3f} – {window['end']:.3f}] "
        f"duration {window['duration_s']:.3f} s "
        f"({result['counts']['spans']} spans, {result['counts']['events']} events)"
    )
    out.append("")

    segments = cp["segments"]
    shown = segments[:max_segments]
    rows = [
        (
            f"{seg['start']:.3f}",
            f"{seg['wait_s']:.3f}",
            f"{seg['duration_s']:.3f}",
            seg["track"],
            seg["name"],
        )
        for seg in shown
    ]
    out.append(
        _table(
            ["start", "wait (s)", "work (s)", "track", "segment"],
            rows,
            title=f"critical path ({len(segments)} segments"
            + (f", first {max_segments} shown" if len(segments) > max_segments else "")
            + ")",
        )
    )
    out.append(
        f"path {cp['path_s']:.3f} s + slack {cp['slack_s']:.3f} s "
        f"(tail {cp['tail_s']:.3f} s) = window {window['duration_s']:.3f} s"
    )
    out.append("")

    util_rows = [
        (
            track,
            f"{row['busy_s']:.3f}",
            f"{row['idle_s']:.3f}",
            f"{row['unavailable_s']:.3f}",
            f"{row['busy_fraction'] * 100:.1f}%",
            row["execs"],
        )
        for track, row in util["tracks"].items()
    ]
    out.append(
        _table(
            ["peer", "busy (s)", "idle (s)", "unavail (s)", "busy", "execs"],
            util_rows,
            title="per-peer utilization",
        )
    )
    out.append(
        f"fairness (Jain) {util['fairness']:.3f} over {len(util['workers'])} workers; "
        "busiest first: " + ", ".join(util["stragglers"][:5])
    )
    out.append("")

    bn_rows = [
        (bucket, f"{bn['seconds'][bucket]:.3f}", f"{bn['fractions'][bucket] * 100:.1f}%")
        for bucket in (*_BUCKETS, _RESIDUAL_BUCKET)
    ]
    out.append(_table(["bucket", "seconds", "share"], bn_rows,
                      title="bottleneck breakdown (sums to 100% of wall-clock)"))
    out.append(
        f"module distribution total (repo_fetch + peer_fetch + revalidate): "
        f"{bn['module_fetch_s']:.3f} s"
    )
    incidents = result["incidents"]
    if incidents:
        out.append("")
        inc_rows = [
            (f"{inc['time']:.3f}", inc["severity"], inc["kind"], inc["track"],
             inc["message"])
            for inc in incidents[:max_segments]
        ]
        out.append(_table(
            ["t (s)", "severity", "kind", "peer", "detail"],
            inc_rows,
            title=f"health incidents ({len(incidents)} — live monitor overlay)",
        ))
    if bn["drops"]:
        out.append(
            "drops: "
            + ", ".join(f"{k}={v}" for k, v in bn["drops"].items())
            + (f"; chaos-tagged events: {bn['chaos_events']}" if bn["chaos_events"] else "")
        )
    return "\n".join(out) + "\n"


def render_diff(diff: dict[str, Any], max_rows: int = 20) -> str:
    """Render a :func:`compare_runs` result as a terminal report."""

    def _delta(row: dict[str, Any]) -> str:
        pct = row["delta_pct"]
        return "n/a" if pct is None else f"{pct:+.1f}%"

    out: list[str] = ["run diff (a = baseline, b = candidate)"]
    head_rows = [
        ("window (sim s)", f"{diff['wall']['a']:.3f}", f"{diff['wall']['b']:.3f}",
         _delta(diff["wall"])),
        ("critical path", f"{diff['critical_path']['a']:.3f}",
         f"{diff['critical_path']['b']:.3f}", _delta(diff["critical_path"])),
        ("slack", f"{diff['slack']['a']:.3f}", f"{diff['slack']['b']:.3f}",
         _delta(diff["slack"])),
    ] + [
        (f"bottleneck: {bucket}", f"{row['a']:.3f}", f"{row['b']:.3f}", _delta(row))
        for bucket, row in diff["bottlenecks"].items()
    ]
    out.append(_table(["metric", "a (s)", "b (s)", "delta"], head_rows,
                      title="headline"))
    out.append("")
    span_rows = [
        (r["name"], r["track"], f"{r['a_total_s']:.3f}", f"{r['b_total_s']:.3f}",
         _delta(r))
        for r in diff["spans"][:max_rows]
    ]
    out.append(
        _table(
            ["span", "track", "a total (s)", "b total (s)", "delta"],
            span_rows,
            title=f"span groups by |delta| (top {min(max_rows, len(diff['spans']))})",
        )
    )
    if diff["only_in_a"]:
        out.append("only in a: " + ", ".join(diff["only_in_a"][:10]))
    if diff["only_in_b"]:
        out.append("only in b: " + ", ".join(diff["only_in_b"][:10]))
    out.append(
        f"{len(diff['regressions'])} span group(s) regressed more than "
        f"{diff['threshold_pct']:.1f}%"
    )
    return "\n".join(out) + "\n"
