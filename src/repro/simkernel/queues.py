"""Event and waitable queues for the simulation kernel.

Two structures live here:

* :class:`CalendarQueue` — the kernel's pending-event queue: a
  bucket-per-timestamp calendar replacing the global binary heap.  This
  is the hot path of every simulation (see ``docs/performance.md``).
* :class:`Store` — an unbounded-or-bounded FIFO of arbitrary items that
  hands out :class:`~repro.simkernel.sim.Event` objects, so processes
  can ``yield`` on a ``get`` or a ``put``.

:class:`CalendarQueue` is consumed by
:class:`~repro.simkernel.sim.Simulator` itself.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any

__all__ = ["CalendarQueue", "Store"]

_INF = float("inf")

#: Missing-bucket sentinel for :meth:`CalendarQueue.push` (``None`` is a
#: legal item).
_EMPTY = object()


class CalendarQueue:
    """Bucket-per-timestamp event calendar with exact heapq-compatible order.

    The kernel's previous queue was one global binary heap of
    ``(time, seq, event)`` tuples: every push and pop paid
    ``O(log n)`` tuple comparisons against the *whole* pending set.
    Discrete-event workloads are extremely tie-heavy — most events are
    scheduled with delay 0 at the current clock, and timer rounds
    (heartbeats, gossip, retries) land whole cohorts on shared
    timestamps — so the heap mostly compared equal times and fell
    through to the sequence number.

    This queue exploits exactly that structure:

    * **head bucket** — a plain ``deque`` of events at the *current*
      timestamp.  Scheduling at the current time is one ``append``;
      popping is one ``popleft``.  O(1), no comparisons, no tuples.
    * **calendar** — a dict mapping each *distinct future* timestamp to
      its own FIFO ``deque``, plus a small binary heap of those distinct
      timestamps.  A push to an existing timestamp is one dict lookup +
      ``append``; only the *first* event at a new timestamp pays a heap
      push, and the heap holds one entry per distinct pending time, not
      one per event.

    Determinism contract (load-bearing — the BENCH baselines pin it):

    1. Events pop in nondecreasing timestamp order.
    2. Events with *equal* timestamps pop in insertion (schedule) order.

    The old heap achieved (2) via the monotone sequence number; here it
    falls out of deque FIFO order, because the kernel's sequence of
    ``push`` calls is itself the schedule order.  Property tests
    (``tests/test_simkernel_queues.py``) replay randomized tie-heavy
    workloads through both this queue and a reference heap and assert
    bit-identical pop order.

    Invariants: pushed times are ``>= `` the last popped time (the
    simulator enforces non-negative delays), the head bucket holds
    exactly the events at ``_head_time``, and ``_times`` holds exactly
    one entry per calendar dict key.
    """

    __slots__ = ("_head", "_head_time", "_buckets", "_times", "_len")

    def __init__(self) -> None:
        self._head: deque = deque()  # events at _head_time, FIFO
        self._head_time: float = 0.0  # timestamp of the head bucket
        self._buckets: dict[float, deque] = {}  # future time -> FIFO
        self._times: list[float] = []  # heap of distinct future times
        self._len = 0

    def push(self, time: float, item: Any) -> None:
        """Enqueue ``item`` at ``time`` (must be >= the last popped time).

        Single-occupant future timestamps store the item bare in the
        calendar dict; a FIFO ``deque`` is only materialised when a
        second item lands on the same time.  This keeps the common
        distinct-timestamp push allocation-free, at the (documented)
        cost that items must not themselves be ``deque`` instances —
        the kernel only ever enqueues :class:`~repro.simkernel.sim.Event`
        objects.
        """
        if time == self._head_time:
            self._head.append(item)
        else:
            buckets = self._buckets
            bucket = buckets.get(time, _EMPTY)
            if bucket is _EMPTY:
                buckets[time] = item
                heappush(self._times, time)
            elif type(bucket) is deque:
                bucket.append(item)
            else:
                buckets[time] = deque((bucket, item))
        self._len += 1

    def push_front(self, time: float, item: Any) -> None:
        """Enqueue ``item`` at ``time`` ahead of everything already queued
        there: it pops as if it had been pushed before all of them."""
        if time == self._head_time:
            self._head.appendleft(item)
        else:
            buckets = self._buckets
            bucket = buckets.get(time, _EMPTY)
            if bucket is _EMPTY:
                buckets[time] = item
                heappush(self._times, time)
            elif type(bucket) is deque:
                bucket.appendleft(item)
            else:
                buckets[time] = deque((item, bucket))
        self._len += 1

    def last_at(self, time: float) -> Any:
        """The item queued last at ``time``, or ``None`` when nothing
        pending lands there.  The item being popped and run is no longer
        pending: a push at its time queues behind whatever is left."""
        if time == self._head_time:
            head = self._head
            return head[-1] if head else None
        bucket = self._buckets.get(time)
        if type(bucket) is deque:
            return bucket[-1]
        return bucket

    def pop(self) -> tuple[float, Any]:
        """Dequeue the earliest item; FIFO among equal times.

        Raises ``IndexError`` when empty (matching ``heapq.heappop``).
        """
        head = self._head
        if not head:
            # Advance the calendar: the earliest future timestamp
            # becomes the new head bucket.
            when = heappop(self._times)
            bucket = self._buckets.pop(when)
            self._head_time = when
            self._len -= 1
            if type(bucket) is deque:
                self._head = bucket
                return when, bucket.popleft()
            # Bare single occupant: the head bucket stays empty (later
            # same-time pushes will append to it).
            return when, bucket
        self._len -= 1
        return self._head_time, head.popleft()

    def peek(self) -> float:
        """Earliest pending timestamp, or ``inf`` when empty."""
        if self._head:
            return self._head_time
        return self._times[0] if self._times else _INF

    def __len__(self) -> int:
        return self._len


# Imported *after* CalendarQueue so the sim <-> queues cycle resolves in
# either import order: sim.py imports CalendarQueue at its module bottom
# (once Event/Simulator exist), and by the time execution reaches this
# line CalendarQueue is already bound on this module.
from .sim import Event, Simulator  # noqa: E402


class Store:
    """A FIFO store that processes can block on.

    ``put`` succeeds immediately unless the store is full (bounded
    ``capacity``); ``get`` succeeds immediately if an item is available,
    otherwise when the next ``put`` arrives.  Fairness is strict FIFO for
    both sides, which keeps simulations deterministic.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Return an event that succeeds once ``item`` is stored."""
        ev = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = Event(self.sim)
        if self.items:
            item = self.items.popleft()
            ev.succeed(item)
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    def _drain_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            put_ev, item = self._putters.popleft()
            self.items.append(item)
            put_ev.succeed(None)
