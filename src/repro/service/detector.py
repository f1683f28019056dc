"""Heartbeat failure detection and worker-health bookkeeping.

The seed controller only noticed a dead worker when an iteration blew
past ``retry_timeout`` — up to ``retry_timeout + retry_interval`` of dead
air.  This module closes that gap with the standard peer-group recipe
(cf. "Exploiting peer group concept for adaptive and highly available
services"): workers emit periodic ``triana-heartbeat`` messages; the
controller *suspects* a worker after ``suspect_after_missed`` silent
intervals and recovers immediately instead of waiting out the timeout.

On top of suspicion the :class:`HeartbeatFailureDetector` keeps an
adaptive per-worker **health score** in ``[0, 1]``: suspicion
(``SUSPICION_PENALTY``) and deploy failures drain it, delivered results
replenish it (``RESULT_REWARD``).  A worker whose score falls below
``QUARANTINE_THRESHOLD`` is quarantined (no dispatches) for
``QUARANTINE_WINDOW`` seconds; a worker quarantined ``BLACKLIST_AFTER``
times is blacklisted for the rest of the run.  Scores, suspicion counts
and quarantine state all surface in the run report's ``recovery``
section.

The detector has no clock of its own: every observation and query takes
the caller's ``now`` (the controller passes its kernel's ``sim.now``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["WorkerHealth", "HeartbeatFailureDetector"]

#: a worker whose score falls below this is quarantined
QUARANTINE_THRESHOLD = 0.4
#: seconds a quarantine lasts
QUARANTINE_WINDOW = 300.0
#: the quarantine count at which a worker is blacklisted for the run
BLACKLIST_AFTER = 3
#: score drained by one heartbeat-silence suspicion
SUSPICION_PENALTY = 0.3
#: score repaid by one delivered result
RESULT_REWARD = 0.05


@dataclass
class WorkerHealth:
    """Mutable per-worker record the detector maintains."""

    last_heartbeat: float = 0.0
    score: float = 1.0
    suspected: bool = False
    suspicions: int = 0
    heartbeats: int = 0
    results: int = 0
    quarantined_until: float = 0.0
    quarantines: int = 0
    blacklisted: bool = False
    #: most recent penalty reason that triggered a quarantine
    quarantine_reason: str = ""
    #: reason recorded at the moment of blacklisting
    blacklist_reason: str = ""


class HeartbeatFailureDetector:
    """Suspicion + health scoring over a watched set of workers."""

    def __init__(self, heartbeat_interval: float = 60.0, suspect_after_missed: int = 3):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if suspect_after_missed < 1:
            raise ValueError("suspect_after_missed must be >= 1")
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after_missed = suspect_after_missed
        self.workers: dict[str, WorkerHealth] = {}

    # -- lifecycle ------------------------------------------------------------
    def watch(self, worker: str, now: float) -> None:
        """Start (or refresh) watching a worker; grants a full grace period."""
        rec = self.workers.setdefault(worker, WorkerHealth())
        rec.last_heartbeat = now
        rec.suspected = False

    # -- observations ---------------------------------------------------------
    def observe_heartbeat(self, worker: str, now: float) -> None:
        """Record a ``triana-heartbeat``; clears any standing suspicion."""
        rec = self.workers.get(worker)
        if rec is None:
            return  # heartbeat from a worker we never placed work on
        rec.heartbeats += 1
        rec.last_heartbeat = now
        if rec.suspected:
            # Resurrection: trust returns, but the scar (score) remains.
            rec.suspected = False

    def observe_result(self, worker: str, now: float) -> None:
        """Record a delivered result: refreshes liveness and repays score."""
        rec = self.workers.get(worker)
        if rec is None:
            return
        rec.results += 1
        rec.last_heartbeat = now  # a result is as good as a heartbeat
        rec.suspected = False
        rec.score = min(1.0, rec.score + RESULT_REWARD)

    def penalise(
        self,
        worker: str,
        now: float,
        amount: float = 0.0,
        reason: str = "penalty",
    ) -> None:
        """External penalty hook (deploy failures, integrity convictions...)."""
        rec = self.workers.setdefault(worker, WorkerHealth())
        self._drain(rec, now, amount, reason)

    # -- the periodic check ---------------------------------------------------
    def check(self, now: float) -> list[str]:
        """Mark workers whose heartbeats went silent; returns new suspects."""
        deadline = self.suspect_after_missed * self.heartbeat_interval
        fresh: list[str] = []
        for worker, rec in sorted(self.workers.items()):
            if rec.suspected or rec.blacklisted:
                continue
            if now - rec.last_heartbeat >= deadline:
                rec.suspected = True
                rec.suspicions += 1
                self._drain(rec, now, SUSPICION_PENALTY, "heartbeat-silence")
                fresh.append(worker)
        return fresh

    def _drain(
        self, rec: WorkerHealth, now: float, amount: float, reason: str = "penalty"
    ) -> None:
        rec.score = max(0.0, rec.score - amount)
        if rec.score < QUARANTINE_THRESHOLD and now >= rec.quarantined_until:
            rec.quarantined_until = now + QUARANTINE_WINDOW
            rec.quarantines += 1
            rec.quarantine_reason = reason
            if rec.quarantines >= BLACKLIST_AFTER:
                rec.blacklisted = True
                rec.blacklist_reason = (
                    f"{reason} ({rec.quarantines} quarantines)"
                )

    # -- queries --------------------------------------------------------------
    def is_alive(self, worker: str) -> bool:
        """Not currently suspected (unknown workers are presumed alive)."""
        rec = self.workers.get(worker)
        return rec is None or not rec.suspected

    def is_dispatchable(self, worker: str, now: float) -> bool:
        """Suitable as a (re)dispatch target right now."""
        rec = self.workers.get(worker)
        if rec is None:
            return True
        return (
            not rec.suspected
            and not rec.blacklisted
            and now >= rec.quarantined_until
        )

    # -- reporting ------------------------------------------------------------
    def snapshot(self, now: float) -> dict[str, Any]:
        """Detector state for the run report's ``recovery`` section."""
        return {
            "suspected": {
                w: r.suspicions for w, r in self.workers.items() if r.suspicions
            },
            "quarantined": sorted(
                w
                for w, r in self.workers.items()
                if now < r.quarantined_until or r.blacklisted
            ),
            "blacklisted": sorted(
                w for w, r in self.workers.items() if r.blacklisted
            ),
            "health": {w: round(r.score, 3) for w, r in self.workers.items()},
            "heartbeats": sum(r.heartbeats for r in self.workers.values()),
            # Why a peer is excluded, not just that it is: deadlines for
            # quarantines still running, and the reason each quarantine /
            # blacklist was issued (empty strings never made the cut).
            "quarantine_deadlines": {
                w: round(r.quarantined_until, 3)
                for w, r in sorted(self.workers.items())
                if now < r.quarantined_until
            },
            "quarantine_reasons": {
                w: r.quarantine_reason
                for w, r in sorted(self.workers.items())
                if r.quarantine_reason
            },
            "blacklist_reasons": {
                w: r.blacklist_reason
                for w, r in sorted(self.workers.items())
                if r.blacklisted
            },
        }

    def telemetry_sample(self, now: float) -> dict[str, Any]:
        """Light snapshot for the live telemetry sampler.

        Unlike :meth:`snapshot`, ``suspected`` lists the workers
        *currently* suspected — health detectors key on the transition
        into suspicion, not on lifetime suspicion counts.
        """
        return {
            "suspected": sorted(
                w for w, r in self.workers.items() if r.suspected
            ),
            "quarantined": sorted(
                w
                for w, r in self.workers.items()
                if now < r.quarantined_until and not r.blacklisted
            ),
            "blacklisted": sorted(
                w for w, r in self.workers.items() if r.blacklisted
            ),
            "health": {
                w: round(r.score, 3) for w, r in sorted(self.workers.items())
            },
            "heartbeats": sum(r.heartbeats for r in self.workers.values()),
        }
