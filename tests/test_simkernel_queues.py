"""Tests for CalendarQueue ordering and the Store wait primitive.

The CalendarQueue section is the determinism contract's regression
suite: randomized (time, seq) workloads — including heavy
same-timestamp ties — are replayed through both the calendar queue and
a reference ``heapq`` of ``(time, seq, item)`` tuples (the kernel's
previous queue), asserting bit-identical pop order.
"""

import heapq
import random

import pytest

from repro.simkernel import CalendarQueue, Simulator, Store


class _ReferenceHeap:
    """The old kernel queue: one global heap of (time, seq, item)."""

    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, time, item):
        heapq.heappush(self._heap, (time, self._seq, item))
        self._seq += 1

    def pop(self):
        when, _seq, item = heapq.heappop(self._heap)
        return when, item

    def __len__(self):
        return len(self._heap)


def _replay(ops):
    """Run the same push/pop sequence through both queues, comparing pops."""
    cal, ref = CalendarQueue(), _ReferenceHeap()
    for op in ops:
        if op is None:
            assert cal.pop() == ref.pop()
        else:
            when, item = op
            cal.push(when, item)
            ref.push(when, item)
    assert len(cal) == len(ref)
    while ref:
        assert cal.pop() == ref.pop()
    assert len(cal) == 0 and not cal


@pytest.mark.parametrize("seed", range(25))
def test_calendar_matches_heapq_on_randomized_workloads(seed):
    """Property-style: random interleaved push/pop, tie-heavy times.

    Times are drawn from a deliberately small/lumpy set so most pushes
    collide with pending timestamps (the same-time FIFO case), and the
    monotone `now` mirrors the simulator's non-decreasing clock.
    """
    rng = random.Random(seed)
    ops, now, seq = [], 0.0, 0
    live = CalendarQueue()  # tracks `now` while generating the op sequence
    for _ in range(rng.randint(50, 600)):
        if live and rng.random() < 0.45:
            ops.append(None)  # pop
            now = live.pop()[0]  # popping advances the monotone clock
        else:
            delay = rng.choice([0.0, 0.0, 0.0, 0.25, 0.25, 1.0, rng.random()])
            ops.append((now + delay, seq))
            live.push(now + delay, seq)
            seq += 1
    _replay(ops)


def test_calendar_fifo_among_equal_times():
    cal, ref = CalendarQueue(), _ReferenceHeap()
    for i in range(100):
        cal.push(5.0, i)
        ref.push(5.0, i)
    pops = [cal.pop() for _ in range(100)]
    assert pops == [ref.pop() for _ in range(100)]
    assert [item for _t, item in pops] == list(range(100))


def test_calendar_single_occupant_then_tie():
    """A bare single-item bucket must still FIFO with later same-time pushes."""
    cal = CalendarQueue()
    cal.push(2.0, "first")  # stored bare (single occupant)
    cal.push(1.0, "earlier")
    cal.push(2.0, "second")  # forces deque promotion
    cal.push(2.0, "third")
    assert cal.pop() == (1.0, "earlier")
    assert cal.pop() == (2.0, "first")
    assert cal.pop() == (2.0, "second")
    assert cal.pop() == (2.0, "third")


def test_calendar_none_items_are_legal():
    cal = CalendarQueue()
    cal.push(1.0, None)
    cal.push(1.0, None)
    assert cal.pop() == (1.0, None)
    assert cal.pop() == (1.0, None)


def test_calendar_peek_and_len():
    cal = CalendarQueue()
    assert cal.peek() == float("inf")
    assert len(cal) == 0 and not cal
    cal.push(3.0, "a")
    assert cal.peek() == 3.0
    cal.push(1.0, "b")
    assert cal.peek() == 1.0
    assert len(cal) == 2 and bool(cal)
    cal.pop()
    assert cal.peek() == 3.0


def test_calendar_pop_empty_raises_indexerror():
    with pytest.raises(IndexError):
        CalendarQueue().pop()


def test_calendar_same_time_push_after_pop_lands_in_head_bucket():
    cal = CalendarQueue()
    cal.push(4.0, "a")
    assert cal.pop() == (4.0, "a")
    # Scheduling at the current head time (delay 0 in the kernel) must
    # stay FIFO behind nothing and ahead of later times.
    cal.push(4.0, "b")
    cal.push(5.0, "c")
    assert cal.pop() == (4.0, "b")
    assert cal.pop() == (5.0, "c")


@pytest.mark.parametrize("seed", range(25))
def test_push_front_and_last_at_match_a_ranked_reference(seed):
    """A front push pops ahead of everything queued at its time, and
    ``last_at`` names what a push at that time would queue behind."""
    rng = random.Random(seed)
    cal = CalendarQueue()
    ref = []  # (time, rank, item): pushes rank up, front pushes rank down
    now, back, front = 0.0, 0, 0
    for item in range(rng.randint(50, 400)):
        when = now + rng.choice([0.0, 0.0, 0.25, 1.0])
        assert cal.last_at(when) == max(
            ((r, it) for t, r, it in ref if t == when), default=(0, None))[1]
        roll = rng.random()
        if ref and roll < 0.4:
            ref.sort()
            when, _rank, want = ref.pop(0)
            assert cal.pop() == (when, want)
            now = when
        elif roll < 0.55:
            front -= 1
            cal.push_front(when, item)
            ref.append((when, front, item))
        else:
            back += 1
            cal.push(when, item)
            ref.append((when, back, item))
    for want in sorted(ref):
        assert cal.pop() == (want[0], want[2])
    assert len(cal) == 0


def test_the_popped_item_is_no_longer_last():
    cal = CalendarQueue()
    cal.push(2.0, "a")
    assert cal.last_at(2.0) == "a" and cal.last_at(3.0) is None
    assert cal.pop() == (2.0, "a")
    assert cal.last_at(2.0) is None
    cal.push(2.0, "b")
    cal.push_front(2.0, "c")
    assert cal.last_at(2.0) == "b"
    assert [cal.pop(), cal.pop()] == [(2.0, "c"), (2.0, "b")]


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer(sim, store):
        yield store.put("a")
        yield store.put("b")

    def consumer(sim, store):
        for _ in range(2):
            item = yield store.get()
            out.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert out == ["a", "b"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    out = []

    def consumer(sim, store):
        item = yield store.get()
        out.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(7.0)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert out == [(7.0, "late")]


def test_store_fifo_between_getters():
    sim = Simulator()
    store = Store(sim)
    out = []

    def consumer(sim, store, tag):
        item = yield store.get()
        out.append((tag, item))

    sim.process(consumer(sim, store, "first"))
    sim.process(consumer(sim, store, "second"))

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put(1)
        yield store.put(2)

    sim.process(producer(sim, store))
    sim.run()
    assert out == [("first", 1), ("second", 2)]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer(sim, store):
        yield store.put("x")
        times.append(("put-x", sim.now))
        yield store.put("y")
        times.append(("put-y", sim.now))

    def consumer(sim, store):
        yield sim.timeout(5.0)
        item = yield store.get()
        times.append(("got", item, sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert ("put-x", 0.0) in times
    assert ("put-y", 5.0) in times


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    sim.run()
    assert len(store.items) == 2

