"""Online health detection over telemetry samples, and the ``repro top`` view.

The streaming half of anomaly detection: a :class:`HealthMonitor`
receives every :class:`~repro.observe.telemetry.TelemetrySampler` row as
it is taken and runs a catalogue of online detectors against it.  Each
detector watches for one failure signature of the paper's consumer-grid
setting and emits severity-ranked :class:`Incident` records — both kept
on the monitor and, when a recording tracer is attached, written onto
the trace as ``health.incident`` instants so post-hoc analysis
(:func:`~repro.observe.analyze.doctor`, ``repro analyze``) sees the same
timeline the live monitor saw.

Detector catalogue (all transition-triggered — an incident fires when a
peer *enters* a bad state, not on every sample it stays there):

=====================  ========  =====================================
kind                   severity  signature
=====================  ========  =====================================
``heartbeat-silence``  critical  the failure detector newly suspects a
                                 peer (missed heartbeats)
``reputation-collapse`` critical a peer's first integrity conviction
                                 (tampered result caught by voting)
``straggler``          warning   a peer's completed iterations fall a
                                 z-score below the healthy fleet
``backlog-growth``     warning   total queued work strictly grows for
                                 N consecutive ticks
``fetch-storm``        warning   module fetches in one tick exceed a
                                 burst threshold
``starvation``         info      an idle peer while others hold a
                                 backlog (placement imbalance)
=====================  ========  =====================================

Detection quality is *scored*, not assumed: :func:`score_against_faults`
matches incidents against the :class:`~repro.faults.FaultInjector`'s
ground-truth log (recall over injected crash/straggler/saboteur faults,
precision over emitted incidents) and the chaos e2e tests gate on it.

Like the sampler, everything here is passive — detectors only read
sample rows; emitting an incident records a trace instant and never
schedules simulation events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .analyze import load_trace, utilization

__all__ = [
    "Incident",
    "HealthMonitor",
    "HealthDetector",
    "HeartbeatSilenceDetector",
    "StragglerDetector",
    "FetchStormDetector",
    "StarvationDetector",
    "BacklogGrowthDetector",
    "ReputationCollapseDetector",
    "default_detectors",
    "score_against_faults",
    "health_incidents",
    "render_top",
]

#: severity ladder, least to most severe
SEVERITIES = ("info", "warning", "critical")

# Detector thresholds.  Only the straggler z-score is a grid setting
# (``GridConfig.straggler_z``); no run has needed another value of these.
#: a straggler also lags the fleet mean by at least this many iterations
STRAGGLER_MIN_LAG = 2.0
#: live peers needed before a z-score means anything
STRAGGLER_MIN_FLEET = 3
#: module fetches in one sample interval that make a storm
FETCH_STORM_THRESHOLD = 64
#: the busiest peer's queue depth at which an idle peer is starving ...
STARVATION_BACKLOG = 3
#: ... once it has been idle this many samples in a row
STARVATION_PATIENCE = 3
#: consecutive samples of strictly growing fleet backlog that fire
BACKLOG_PATIENCE = 4


@dataclass(frozen=True)
class Incident:
    """One detected anomaly, stamped with the sample tick that exposed it."""

    time: float
    kind: str
    severity: str
    track: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def severity_rank(self) -> int:
        return SEVERITIES.index(self.severity)

    def as_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "severity": self.severity,
            "track": self.track,
            "message": self.message,
            "detail": dict(self.detail),
        }


# -- detectors ---------------------------------------------------------------------


class HealthDetector:
    """Base class: one failure signature, updated once per sample row.

    ``update(row, emit)`` receives the raw sample dict and an ``emit``
    callable (``emit(track, message, **detail)``); the monitor stamps
    kind/severity/time.  Detectors must tolerate missing row sections —
    a bare sampler only carries the ``sim`` block.
    """

    kind = "anomaly"
    severity = "warning"

    def update(self, row: dict[str, Any], emit: Callable[..., None]) -> None:
        raise NotImplementedError


def _excluded(row: dict[str, Any]) -> set[str]:
    """Peers the failure detector already considers gone.

    Suspected/quarantined/blacklisted peers are excluded from fleet
    statistics: a crashed worker's frozen progress would otherwise drag
    the mean down and mask a genuinely slow (but alive) straggler.
    """
    det = row.get("detector") or {}
    out: set[str] = set()
    for key in ("suspected", "quarantined", "blacklisted"):
        out.update(det.get(key, ()))
    return out


class HeartbeatSilenceDetector(HealthDetector):
    """A peer newly suspected by the failure detector went silent."""

    kind = "heartbeat-silence"
    severity = "critical"

    def __init__(self):
        self._flagged: set[str] = set()

    def update(self, row, emit):
        det = row.get("detector")
        if det is None:
            return
        suspected = set(det.get("suspected", ()))
        for peer in sorted(suspected - self._flagged):
            emit(peer, f"{peer} stopped heartbeating (suspected by the "
                       "failure detector)")
        self._flagged = suspected


class StragglerDetector(HealthDetector):
    """A live peer's completed iterations fall a z-score behind the fleet
    (and at least :data:`STRAGGLER_MIN_LAG` iterations behind its mean)."""

    kind = "straggler"
    severity = "warning"

    def __init__(self, z_threshold: float = 2.0):
        self.z_threshold = float(z_threshold)
        self._flagged: set[str] = set()

    def update(self, row, emit):
        workers = row.get("workers")
        if not workers:
            return
        exclude = _excluded(row)
        counts = {
            peer: info.get("iterations", 0)
            for peer, info in workers.items()
            if peer not in exclude
        }
        if len(counts) < STRAGGLER_MIN_FLEET:
            return
        values = list(counts.values())
        n = len(values)
        mean = sum(values) / n
        std = (sum((v - mean) ** 2 for v in values) / n) ** 0.5
        flagged_now: set[str] = set()
        if std > 0:
            for peer in sorted(counts):
                lag = mean - counts[peer]
                z = -lag / std
                if z <= -self.z_threshold and lag >= STRAGGLER_MIN_LAG:
                    flagged_now.add(peer)
                    if peer not in self._flagged:
                        emit(
                            peer,
                            f"{peer} lags the fleet: {counts[peer]} vs mean "
                            f"{mean:.1f} iterations (z={z:.1f})",
                            z=round(z, 2),
                            lag=round(lag, 2),
                        )
        self._flagged = flagged_now


class FetchStormDetector(HealthDetector):
    """Module fetches in one sample interval exceed
    :data:`FETCH_STORM_THRESHOLD`."""

    kind = "fetch-storm"
    severity = "warning"

    def __init__(self):
        self._last: Optional[int] = None
        self._active = False

    def update(self, row, emit):
        workers = row.get("workers")
        if workers is None:
            return
        total = 0
        for info in workers.values():
            cache = info.get("cache", {})
            total += cache.get("fetches", 0) + cache.get("peer_fetches", 0)
        if self._last is not None:
            delta = total - self._last
            if delta > FETCH_STORM_THRESHOLD and not self._active:
                self._active = True
                emit(
                    "grid",
                    f"fetch storm: {delta} module fetches in one sample "
                    f"interval (threshold {FETCH_STORM_THRESHOLD})",
                    fetches=delta,
                )
            elif delta <= FETCH_STORM_THRESHOLD:
                self._active = False
        self._last = total


class StarvationDetector(HealthDetector):
    """A live peer sits idle for :data:`STARVATION_PATIENCE` samples while
    another queues at least :data:`STARVATION_BACKLOG` iterations."""

    kind = "starvation"
    severity = "info"

    def __init__(self):
        self._streak: dict[str, int] = {}

    def update(self, row, emit):
        workers = row.get("workers")
        if not workers:
            return
        exclude = _excluded(row)
        max_queued = max(
            (info.get("queued", 0) for info in workers.values()), default=0
        )
        for peer in sorted(workers):
            info = workers[peer]
            idle = (
                info.get("queued", 0) == 0
                and info.get("inflight", 0) == 0
                and peer not in exclude
            )
            if idle and max_queued >= STARVATION_BACKLOG:
                streak = self._streak.get(peer, 0) + 1
                self._streak[peer] = streak
                if streak == STARVATION_PATIENCE:
                    emit(
                        peer,
                        f"{peer} starved: idle for {streak} samples while the "
                        f"busiest peer queues {max_queued} iterations",
                        backlog=max_queued,
                    )
            else:
                self._streak[peer] = 0


class BacklogGrowthDetector(HealthDetector):
    """Total queued work across the fleet strictly grows tick over tick,
    :data:`BACKLOG_PATIENCE` ticks in a row."""

    kind = "backlog-growth"
    severity = "warning"

    def __init__(self):
        self._last: Optional[int] = None
        self._streak = 0
        self._fired = False

    def update(self, row, emit):
        workers = row.get("workers")
        if workers is None:
            return
        total = sum(info.get("queued", 0) for info in workers.values())
        if self._last is not None and total > self._last:
            self._streak += 1
        else:
            self._streak = 0
            self._fired = False
        if self._streak >= BACKLOG_PATIENCE and not self._fired:
            self._fired = True
            emit(
                "grid",
                f"backlog growing: fleet queue depth rose {self._streak} "
                f"consecutive samples to {total}",
                queued=total,
            )
        self._last = total


class ReputationCollapseDetector(HealthDetector):
    """A peer's first integrity conviction — quorum caught a tampered result."""

    kind = "reputation-collapse"
    severity = "critical"

    def __init__(self):
        self._flagged: set[str] = set()

    def update(self, row, emit):
        rep = row.get("reputation")
        if rep is None:
            return
        convicted = rep.get("convicted", {})
        for peer in sorted(convicted):
            if peer not in self._flagged:
                self._flagged.add(peer)
                emit(
                    peer,
                    f"{peer} convicted of result tampering "
                    f"({convicted[peer]} conviction(s))",
                    convictions=convicted[peer],
                )


def default_detectors(straggler_z: float = 2.0) -> list[HealthDetector]:
    """The full catalogue (the grid's default); only the straggler z-score
    is a setting (``GridConfig.straggler_z``)."""
    return [
        HeartbeatSilenceDetector(),
        ReputationCollapseDetector(),
        StragglerDetector(z_threshold=straggler_z),
        BacklogGrowthDetector(),
        FetchStormDetector(),
        StarvationDetector(),
    ]


# -- the monitor -------------------------------------------------------------------


class HealthMonitor:
    """Runs the detector catalogue over every sampled telemetry row."""

    def __init__(self, detectors: Optional[Iterable[HealthDetector]] = None,
                 max_incidents: int = 1024):
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.incidents: list[Incident] = []
        self.max_incidents = int(max_incidents)
        self.dropped = 0
        self._tracer = None

    def attach(self, tracer) -> None:
        """Mirror every incident onto the trace as a ``health.incident``."""
        self._tracer = tracer

    def on_sample(self, row: dict[str, Any]) -> None:
        time = row.get("t", 0.0)
        for detector in self.detectors:
            def emit(track, message, _det=detector, _t=time, **detail):
                self._record(_det, _t, track, message, detail)
            detector.update(row, emit)

    def _record(self, detector, time, track, message, detail) -> None:
        if len(self.incidents) >= self.max_incidents:
            self.dropped += 1
            return
        incident = Incident(
            time=time,
            kind=detector.kind,
            severity=detector.severity,
            track=track,
            message=message,
            detail=detail,
        )
        self.incidents.append(incident)
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "health.incident",
                category="health",
                track=track,
                time=time,
                kind=incident.kind,
                severity=incident.severity,
                message=message,
                **detail,
            )

    # -- reporting -----------------------------------------------------------
    def ranked(self) -> list[Incident]:
        """Incidents most-severe first, earliest first within a severity."""
        return sorted(
            self.incidents,
            key=lambda i: (-i.severity_rank, i.time, i.kind, i.track),
        )

    def summary(self) -> dict[str, Any]:
        by_severity: dict[str, int] = {}
        by_kind: dict[str, int] = {}
        for incident in self.incidents:
            by_severity[incident.severity] = by_severity.get(incident.severity, 0) + 1
            by_kind[incident.kind] = by_kind.get(incident.kind, 0) + 1
        return {
            "incidents": len(self.incidents),
            "dropped": self.dropped,
            "by_severity": dict(sorted(by_severity.items())),
            "by_kind": dict(sorted(by_kind.items())),
            "worst": [i.as_dict() for i in self.ranked()[:5]],
        }


# -- scoring against fault ground truth ---------------------------------------------

#: which incident kinds count as *detecting* each injected fault action.
#: A crash legitimately surfaces as heartbeat silence, a frozen-progress
#: straggler, or downstream starvation — any of them is a catch.
FAULT_KINDS = {
    "crash": ("heartbeat-silence", "straggler", "starvation"),
    "slowdown": ("straggler",),
    "saboteur": ("reputation-collapse",),
    "flaky_compute": ("reputation-collapse",),
    "liar_heartbeat": ("reputation-collapse", "heartbeat-silence"),
}

#: grid-scoped kinds describe ambient pressure, not one peer's fault —
#: they are excluded from the per-fault precision accounting.
_AMBIENT_KINDS = frozenset({"fetch-storm", "backlog-growth"})


def _incident_fields(incident) -> tuple[str, str, float]:
    if isinstance(incident, dict):
        return (
            incident.get("kind", ""),
            incident.get("track", ""),
            float(incident.get("time", 0.0)),
        )
    return incident.kind, incident.track, incident.time


def score_against_faults(incidents, fault_log) -> dict[str, Any]:
    """Match incidents to the :class:`FaultInjector`'s ground-truth log.

    One injected fault = one unique ``(action, target)`` pair among the
    log's onset entries (crash/slowdown/saboteur/...); it counts as
    *detected* if any incident of a matching kind names the same peer at
    or after the onset.  ``recall`` is detected/injected.  ``precision``
    is the fraction of peer-scoped incidents attributable to some
    injected fault (ambient grid-level kinds are reported separately).
    On a clean run both lists are empty and recall/precision are 1.0.
    """
    faults: list[dict[str, Any]] = []
    seen: set[tuple[str, str]] = set()
    for entry in fault_log:
        action = entry.get("action")
        if action not in FAULT_KINDS:
            continue
        detail = str(entry.get("detail", ""))
        target = detail.split()[0] if detail else ""
        key = (action, target)
        if key in seen:
            continue
        seen.add(key)
        faults.append({"action": action, "target": target, "t": entry.get("t", 0.0)})

    rows = [_incident_fields(i) for i in incidents]

    def _matches(fault, kind, track, time):
        return (
            kind in FAULT_KINDS[fault["action"]]
            and track == fault["target"]
            and time >= fault["t"]
        )

    detected, missed = [], []
    for fault in faults:
        hit = next(
            ((kind, time) for kind, track, time in rows
             if _matches(fault, kind, track, time)),
            None,
        )
        if hit is None:
            missed.append(dict(fault))
        else:
            detected.append({**fault, "incident_kind": hit[0],
                             "detected_at": hit[1]})

    ambient = sum(1 for kind, _, _ in rows if kind in _AMBIENT_KINDS)
    scoped = [(k, tr, t) for k, tr, t in rows if k not in _AMBIENT_KINDS]
    unmatched = [
        {"kind": kind, "track": track, "time": time}
        for kind, track, time in scoped
        if not any(_matches(f, kind, track, time) for f in faults)
    ]
    return {
        "faults": len(faults),
        "detected": len(detected),
        "missed": missed,
        "matched": detected,
        "recall": len(detected) / len(faults) if faults else 1.0,
        "incidents": len(rows),
        "ambient_incidents": ambient,
        "unmatched_incidents": len(unmatched),
        "unmatched": unmatched,
        "precision": 1.0 - len(unmatched) / len(scoped) if scoped else 1.0,
    }


# -- the `repro top` dashboard ------------------------------------------------------


def health_incidents(source) -> list[dict[str, Any]]:
    """Extract ``health.incident`` instants from any trace source."""
    view = load_trace(source)
    out = []
    for event in view.events:
        if event.name != "health.incident":
            continue
        attrs = dict(event.attrs)
        out.append({
            "time": event.time,
            "track": event.track,
            "kind": attrs.pop("kind", "anomaly"),
            "severity": attrs.pop("severity", "warning"),
            "message": attrs.pop("message", ""),
            "detail": attrs,
        })
    out.sort(key=lambda i: (i["time"], i["kind"], i["track"]))
    return out


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


_SEV_TAG = {"critical": "CRIT", "warning": "WARN", "info": "info"}


def render_top(source, max_incidents: int = 15) -> str:
    """The ``repro top`` text dashboard over a trace source.

    Three panes: per-peer utilization bars, the incident timeline
    (most recent ``max_incidents``), and worst offenders — peers ranked
    by incident severity, then by idleness.
    """
    util = utilization(source)
    incidents = health_incidents(source)
    window = util["window"]

    out: list[str] = []
    out.append(
        f"repro top — window [{window['start']:.1f} – {window['end']:.1f}] "
        f"sim s, {len(util['workers'])} workers, "
        f"fairness {util['fairness']:.3f}"
    )
    out.append("")
    out.append("peers")
    for track, row in util["tracks"].items():
        frac = row["busy_fraction"]
        count = sum(1 for i in incidents if i["track"] == track)
        suffix = f"  {count} incident(s)" if count else ""
        out.append(
            f"  {track:<12} [{_bar(frac)}] {frac * 100:5.1f}% busy  "
            f"{row['execs']:4d} execs{suffix}"
        )
    out.append("")
    if incidents:
        shown = incidents[-max_incidents:]
        out.append(
            f"incidents ({len(incidents)} total"
            + (f", last {len(shown)} shown" if len(shown) < len(incidents) else "")
            + ")"
        )
        for inc in shown:
            tag = _SEV_TAG.get(inc["severity"], inc["severity"])
            out.append(
                f"  t={inc['time']:8.1f}  {tag:<4} {inc['kind']:<19} "
                f"{inc['track']:<12} {inc['message']}"
            )
        out.append("")
        out.append("worst offenders")
        weight = {"critical": 100, "warning": 10, "info": 1}
        score: dict[str, int] = {}
        for inc in incidents:
            if inc["track"] in util["tracks"] or inc["track"] != "grid":
                score[inc["track"]] = (
                    score.get(inc["track"], 0) + weight.get(inc["severity"], 1)
                )
        ranked = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))
        for track, points in ranked[:5]:
            counts: dict[str, int] = {}
            for inc in incidents:
                if inc["track"] == track:
                    counts[inc["severity"]] = counts.get(inc["severity"], 0) + 1
            busy = util["tracks"].get(track, {}).get("busy_fraction", 0.0)
            breakdown = ", ".join(
                f"{n} {sev}" for sev, n in sorted(counts.items(),
                                                  key=lambda kv: -weight.get(kv[0], 0))
            )
            out.append(f"  {track:<12} {breakdown} — busy {busy * 100:.1f}%")
    else:
        out.append("incidents: none — healthy run")
    return "\n".join(out) + "\n"
