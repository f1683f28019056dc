"""Trace exporters: Chrome/Perfetto JSON, JSONL log, text timelines (§3.2).

The paper's §3.2 wants run progress visible through multiple
disconnected views; these exporters are the offline counterparts of the
live progress pages.  Three formats, chosen by file extension in
:func:`write_trace`:

* ``.json`` — the Chrome ``chrome://tracing`` / Perfetto "JSON trace
  event" format (``traceEvents`` with ``ph: "X"`` complete spans and
  ``ph: "i"`` instants).  Load it at https://ui.perfetto.dev or in
  ``chrome://tracing``; each peer renders as its own thread row.
* ``.jsonl`` — one self-describing JSON object per span/event, in
  simulated-time order; the machine-friendly event log.
* ``.txt`` / ``.log`` — a plain-text per-peer timeline, readable in a
  terminal.

All exports are byte-deterministic for a given trace: tracks map to
thread ids in sorted order, events are sorted by (time, id), and JSON is
emitted with sorted keys.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "chrome_trace",
    "jsonl_lines",
    "text_timeline",
    "write_metrics",
    "write_trace",
]

#: One synthetic process groups every track in the exported trace.
_PID = 1


def _json_default(value: Any):
    """Coerce non-JSON attribute values (numpy scalars, sets, objects)."""
    item = getattr(value, "item", None)
    if item is not None:
        try:
            return item()  # numpy scalar → native python number
        except (TypeError, ValueError):
            pass
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    return str(value)


def _track_ids(tracer) -> dict[str, int]:
    """Deterministic track → thread-id mapping (sorted by track name)."""
    tracks = {span.track for span in tracer.spans}
    tracks.update(event.track for event in tracer.events)
    return {track: tid for tid, track in enumerate(sorted(tracks), start=1)}


def chrome_trace(tracer) -> dict[str, Any]:
    """The trace as a Chrome/Perfetto ``traceEvents`` document (a dict).

    Times are converted from simulated seconds to the format's
    microseconds.  Spans still open at export time are emitted with zero
    duration and ``args.unfinished = true`` rather than dropped.
    """
    tids = _track_ids(tracer)
    events: list[dict[str, Any]] = []
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in tracer.spans:
        args = dict(span.attrs)
        duration = span.end - span.start if span.end is not None else 0.0
        if span.end is None:
            args["unfinished"] = True
        if span.parent_id is not None:
            args["parent_span"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": duration * 1e6,
                "pid": _PID,
                "tid": tids[span.track],
                "id": span.span_id,
                "args": args,
            }
        )
    for event in tracer.events:
        events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": event.time * 1e6,
                "pid": _PID,
                "tid": tids[event.track],
                "args": event.info,
            }
        )
    # Metadata first, then strict (ts, name) order — stable across runs.
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0), e.get("id", 0), e["name"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds", "source": "repro.observe"},
    }


def jsonl_lines(tracer) -> list[str]:
    """One JSON object per record, ordered by simulated time."""
    records: list[tuple[float, int, dict[str, Any]]] = []
    for span in tracer.spans:
        records.append(
            (
                span.start,
                span.span_id,
                {
                    "type": "span",
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "category": span.category,
                    "track": span.track,
                    "start": span.start,
                    "end": span.end,
                    "attrs": span.attrs,
                },
            )
        )
    for i, event in enumerate(tracer.events):
        records.append(
            (
                event.time,
                i,
                {
                    "type": "event",
                    "name": event.name,
                    "category": event.category,
                    "track": event.track,
                    "time": event.time,
                    "attrs": event.info,
                },
            )
        )
    records.sort(key=lambda r: (r[0], r[2]["type"], r[1]))
    return [
        json.dumps(record, sort_keys=True, default=_json_default)
        for _, _, record in records
    ]


def text_timeline(tracer, width: int = 100) -> str:
    """A plain-text per-track (per-peer) timeline.

    Each track gets its own section; spans show ``[start – end]`` with
    nesting indentation, point events show ``@time``.
    """
    tids = _track_ids(tracer)
    lines: list[str] = ["timeline (simulated seconds)", "=" * 28]
    depth_of: dict[int, int] = {}
    for span in tracer.spans:
        depth_of[span.span_id] = (
            depth_of.get(span.parent_id, -1) + 1 if span.parent_id is not None else 0
        )
    for track in tids:
        rows: list[tuple[float, int, str]] = []
        for span in tracer.spans:
            if span.track != track:
                continue
            indent = "  " * depth_of.get(span.span_id, 0)
            end = f"{span.end:.3f}" if span.end is not None else "…"
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            rows.append(
                (
                    span.start,
                    span.span_id,
                    f"  [{span.start:10.3f} – {end:>10}] {indent}{span.name}"
                    + (f"  ({attrs})" if attrs else ""),
                )
            )
        for i, event in enumerate(tracer.events):
            if event.track != track:
                continue
            attrs = " ".join(f"{k}={v}" for k, v in event.info.items())
            rows.append(
                (
                    event.time,
                    10**9 + i,
                    f"  [{event.time:10.3f} @          ] {event.name}"
                    + (f"  ({attrs})" if attrs else ""),
                )
            )
        rows.sort(key=lambda r: (r[0], r[1]))
        lines.append("")
        lines.append(f"-- {track} ({len(rows)} records)")
        lines.extend(row[-1][: width + 2] for row in rows)
    return "\n".join(lines) + "\n"


#: extension → format map for ``write_trace(..., fmt="auto")``
_EXTENSION_FORMATS = {
    ".json": "chrome",
    ".jsonl": "jsonl",
    ".txt": "text",
    ".log": "text",
}


def write_trace(tracer, path: str, fmt: str = "auto") -> str:
    """Write the trace to ``path``; returns the format actually used.

    ``fmt`` may be ``chrome`` (Perfetto-loadable JSON), ``jsonl``,
    ``text``, or ``auto`` to pick by extension (``.json`` → chrome,
    ``.jsonl`` → jsonl, ``.txt``/``.log`` → text).  An unknown extension
    with ``fmt="auto"`` raises :class:`ValueError` naming the supported
    extensions; pass an explicit ``fmt`` to override a mismatched (or
    missing) extension.
    """
    if fmt == "auto":
        lowered = path.lower()
        for extension, mapped in _EXTENSION_FORMATS.items():
            if lowered.endswith(extension):
                fmt = mapped
                break
        else:
            known = "/".join(sorted(_EXTENSION_FORMATS))
            raise ValueError(
                f"cannot infer trace format from {path!r}: supported "
                f"extensions are {known}; pass fmt='chrome'/'jsonl'/'text' "
                "to override"
            )
    if fmt == "chrome":
        payload = json.dumps(
            chrome_trace(tracer), sort_keys=True, default=_json_default
        )
    elif fmt == "jsonl":
        payload = "\n".join(jsonl_lines(tracer)) + "\n"
    elif fmt == "text":
        payload = text_timeline(tracer)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; know chrome/jsonl/text/auto")
    with open(path, "w") as fh:
        fh.write(payload)
    return fmt


#: extensions accepted by ``write_metrics`` (single-document JSON only)
_METRICS_EXTENSIONS = (".json",)


def write_metrics(row: dict[str, Any], path: str) -> dict[str, Any]:
    """Dump one telemetry row — a grid's cumulative counters — as JSON.

    The sibling of :func:`write_trace` for quantities rather than
    timelines: ``row`` is what :func:`~repro.observe.telemetry.telemetry_row`
    returns (``sim``, ``net``, ``workers``, ...).  Returns the row written.
    Byte-deterministic for a given run (sorted keys).

    Only ``.json`` output is supported; an unrecognised extension raises
    :class:`ValueError` naming the supported formats, matching the
    :func:`write_trace` contract.
    """
    lowered = path.lower()
    if not any(lowered.endswith(ext) for ext in _METRICS_EXTENSIONS):
        known = "/".join(sorted(_METRICS_EXTENSIONS))
        raise ValueError(
            f"cannot infer metrics format from {path!r}: supported "
            f"extensions are {known}"
        )
    with open(path, "w") as fh:
        fh.write(json.dumps(row, sort_keys=True, default=_json_default))
        fh.write("\n")
    return row
