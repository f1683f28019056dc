"""``RealtimeSimulator``: the event kernel re-clocked to wall time.

The whole service protocol — controller, workers, detector, recovery
policies, module cache — is written against the kernel's primitives:
``sim.timeout``, ``sim.call_at``, ``sim.event``, ``sim.run(until=...)``.
Running that protocol over real sockets does *not* require rewriting it;
it requires a kernel whose clock is wall time and whose idle moments are
spent waiting on the network instead of jumping the clock forward.

That is what this subclass does:

* ``now`` advances with ``time.monotonic()`` (seconds since the kernel
  was created), so a ``timeout(5)`` scheduled by a heartbeat loop fires
  roughly five *real* seconds later, and detector ``now`` values,
  traces, and telemetry all carry meaningful wall-clock stamps.
* Between due events the kernel calls its **pump** — the one callable
  its socket transport sets.  The contract: ``pump(max_wait)``
  returns once a frame has been dispatched or ``max_wait`` seconds have
  passed, whichever is first; ``pump(0)`` polls the sockets once and
  never blocks; a frame dispatched by a non-blocking pump makes the
  next blocking one return at once.  A TCP frame delivered by a pump
  succeeds kernel events exactly like a simulated delivery would, and
  the drain loop picks them up on the next tick.  Sending needs no
  pump: ``TcpTransport.send`` writes through to the socket.
* ``run(until=None)`` cannot mean "drain the queue" any more (heartbeat
  loops keep the queue eternally non-empty); it means *settle*: process
  everything already due, then return once no new work arrives within
  :data:`SETTLE_GRACE`.  Grid assembly uses this to let publishes land.
* ``run(until=Event)`` waits — pumping the network — until the event is
  processed, even if the local queue is momentarily empty; the awaited
  result may be a frame that has not arrived yet.

Determinism note: none of this is used by the simulated backend.  The
deterministic :class:`~repro.simkernel.Simulator` is untouched and the
BENCH baselines pin its behaviour.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..simkernel.errors import SimTimeError
from ..simkernel.sim import Event, Simulator

__all__ = ["RealtimeSimulator"]

#: the longest one pump call may block when no event is due, in seconds
IDLE_WAIT = 0.05
#: ``run(None)`` returns after this many seconds without a new event
SETTLE_GRACE = 0.25


class RealtimeSimulator(Simulator):
    """Event kernel whose clock is wall time and whose idle waits pump I/O.

    Parameters
    ----------
    seed:
        Forwarded to :class:`Simulator` (named RNG streams stay
        available; e.g. recovery backoff draws from ``rng("...")``).
    tracer:
        Optional tracer; spans/instants get wall-clock timestamps.
    """

    def __init__(self, seed: int = 0, tracer=None):
        super().__init__(seed, tracer)
        self._epoch = time.monotonic()
        self._pump: Callable[[float], None] = _sleep

    # -- wall clock ---------------------------------------------------------
    @property
    def wall_now(self) -> float:
        """Seconds of real time since this kernel was created."""
        return time.monotonic() - self._epoch

    def set_pump(self, pump: Callable[[float], None]) -> None:
        """Set the network pump: ``pump(max_wait)`` dispatches what
        arrived, blocking until the first frame or ``max_wait`` seconds
        (``max_wait <= 0``: one poll, no blocking)."""
        self._pump = pump

    # -- one tick -----------------------------------------------------------
    def _tick(self, horizon: Optional[float]) -> bool:
        """Process one due event or wait briefly for one; True if an
        event was processed."""
        queue = self._queue
        wall = self.wall_now
        if queue._len:
            when = queue.peek()
            if when <= wall:
                # Due now.  The clock follows the wall, never the
                # schedule: a late event runs at the real time it pops,
                # so follow-up timeouts measure from *now*, not from
                # when the event was supposed to fire.
                self.now = max(self.now, wall)
                _, event = queue.pop()
                self.events_executed += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.on_step(self)
                event._run_callbacks()
                return True
            wait = min(when - wall, IDLE_WAIT)
        else:
            wait = IDLE_WAIT
        if horizon is not None:
            wait = min(wait, max(horizon - wall, 0.0))
        self._pump(wait)
        self.now = max(self.now, self.wall_now)
        return False

    # -- drain loops --------------------------------------------------------
    def _run(self, until):
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                self._tick(None)
            return stop.value
        if until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimTimeError(f"run(until={horizon}) is in the past")
            while self.wall_now < horizon:
                self._tick(horizon)
            # Anything stamped inside the horizon still runs.
            while self._queue._len and self._queue.peek() <= horizon:
                self._tick(None)
            self.now = max(self.now, horizon)
            return None
        # Settle: run due work, then return after a quiet grace window.
        deadline = self.wall_now + SETTLE_GRACE
        while True:
            if self._tick(deadline):
                deadline = self.wall_now + SETTLE_GRACE
                continue
            if self.wall_now >= deadline:
                return None


def _sleep(max_wait: float) -> None:
    """The pump of a kernel without sockets: wait, nothing arrives."""
    if max_wait > 0:
        time.sleep(max_wait)
