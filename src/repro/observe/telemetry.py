"""Live telemetry: periodic sampling over sim time.

The tracer (:mod:`repro.observe.tracer`) only speaks after the run ends;
the paper's consumer-grid premise is a volunteer pool whose health —
churn, stragglers, saboteurs, fetch storms — changes *while* a workflow
executes.  This module adds the streaming half of the observability
layer: :class:`TelemetrySampler` captures a snapshot row at fixed
sim-clock intervals into a bounded ring buffer.  Rows always carry the
kernel's own state (event-queue depth, events executed); grids
register additional *sources* — plain callables returning dicts — for
per-peer inflight/queued work, module-cache hit and peer-fetch rates,
in-flight network bytes, failure-detector health and reputation
scores.  A :class:`~repro.observe.health.HealthMonitor` attached to
the sampler sees every row as it is taken, so anomaly detection runs
*online*, not post-hoc.

Sampling is strictly passive, like tracing: it never schedules
simulation events and never draws randomness.  The sampler piggybacks
on ``Tracer.on_step`` — it reads the clock when an event executes and
emits a row per crossed tick boundary, stamped with the deterministic
boundary time.  A telemetered run is therefore bit-identical to a bare
one (the passivity tests in ``tests/test_runtable.py`` pin this down).
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Callable, Optional

__all__ = ["TelemetrySampler", "telemetry_row"]


def telemetry_row(sim, sources) -> dict[str, Any]:
    """One row: the kernel's own state, then each ``(name, fn)`` source.

    The sampler stamps these at tick boundaries; a grid's end-of-run
    ``metrics_out`` file is one more, taken when the run ends.
    """
    row: dict[str, Any] = {
        "sim": {
            "queue_depth": sim._queue._len,
            "events": sim.events_executed,
        },
    }
    for name, fn in sources:
        row[name] = fn()
    return row


class TelemetrySampler:
    """Fixed-interval snapshot rows over simulated time, in a ring buffer.

    Parameters
    ----------
    interval:
        Sim seconds between samples, positive and finite.  Rows are
        stamped with the exact tick-boundary time (``t0 + k*interval``);
        the values are the grid state at the first executed event
        at-or-after the boundary.
    capacity:
        Ring size.  Older rows are dropped (counted in
        ``samples_dropped``) once the buffer is full.
    max_catchup:
        If the event stream goes quiet for longer than
        ``max_catchup * interval``, intermediate boundaries are skipped
        (counted in ``ticks_skipped``) rather than emitting a burst of
        identical rows.
    """

    def __init__(
        self,
        interval: float = 5.0,
        capacity: int = 2048,
        max_catchup: int = 32,
    ):
        if not 0 < interval < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"sampler interval must be positive and finite, got {interval!r}"
            )
        if capacity < 1:
            raise ValueError(f"sampler capacity must be >= 1, got {capacity!r}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.max_catchup = int(max_catchup)
        self.samples: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        #: set by :meth:`attach_monitor`
        self.monitor: Optional[Any] = None
        #: registered (name, fn) sources, sampled in registration order
        self._sources: list[tuple[str, Callable[[], dict[str, Any]]]] = []
        self.next_tick: float = float("inf")
        self.samples_taken = 0
        self.samples_dropped = 0
        self.ticks_skipped = 0

    # -- wiring --------------------------------------------------------------
    def bind(self, sim) -> None:
        """Anchor the tick grid at the simulator's current clock."""
        self.next_tick = sim.now + self.interval

    def add_source(self, name: str, fn: Callable[[], dict[str, Any]]) -> None:
        """Register a named snapshot source (a callable returning a dict).

        Sources are plain callables so the observe layer never imports
        the subsystems it observes — the grid wires them up.
        """
        if any(existing == name for existing, _ in self._sources):
            raise ValueError(f"duplicate telemetry source {name!r}")
        self._sources.append((name, fn))

    def attach_monitor(self, monitor) -> None:
        """Deliver every sampled row to ``monitor.on_sample`` as it is taken."""
        self.monitor = monitor

    # -- sampling ------------------------------------------------------------
    def on_step(self, sim) -> None:
        """Take one row per tick boundary crossed since the last event.

        Called from ``Tracer.on_step`` only when ``sim.now`` has reached
        ``next_tick``, so the traced hot loop pays one comparison.
        """
        now = sim.now
        tick = self.next_tick
        interval = self.interval
        gap = int((now - tick) // interval)
        if gap > self.max_catchup:
            skipped = gap - self.max_catchup
            self.ticks_skipped += skipped
            tick += skipped * interval
        while now >= tick:
            self._sample(tick, sim)
            tick += interval
        self.next_tick = tick

    def _sample(self, tick: float, sim) -> None:
        row = {
            "t": tick,
            "seq": self.samples_taken,
            **telemetry_row(sim, self._sources),
        }
        if len(self.samples) == self.capacity:
            self.samples_dropped += 1
        self.samples.append(row)
        self.samples_taken += 1
        monitor = self.monitor
        if monitor is not None:
            monitor.on_sample(row)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        return {
            "interval_s": self.interval,
            "samples": self.samples_taken,
            "buffered": len(self.samples),
            "dropped": self.samples_dropped,
            "ticks_skipped": self.ticks_skipped,
            "sources": [name for name, _ in self._sources],
        }

    def export_jsonl(self, path: str) -> int:
        """Write the buffered rows as one JSON object per line."""
        count = 0
        with open(path, "w") as fh:
            for row in self.samples:
                fh.write(json.dumps(row, sort_keys=True, default=str))
                fh.write("\n")
                count += 1
        return count
