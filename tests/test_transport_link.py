"""The TCP link layer's two machines, driven without a socket or a loop.

``FrameCutter`` gets frame streams cut at arbitrary points (Hypothesis)
and is held to a whole-stream reference parse; ``Link`` gets seeded
random sequences of send / dial-fail / connected / lost / paused /
resumed / timer events on a fake clock and is held to its delivery
contract: a FIFO subsequence delivered, none twice, re-dials after
``min(BACKOFF_BASE · 2^(k-1), BACKOFF_MAX)``, oldest-first drops after
``MAX_RETRIES`` failures in a row, counted in ``stats.dropped_offline``.
"""

import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.transport.link as link_mod
from repro.p2p.network import Message, NetStats
from repro.transport.link import (
    ALLOC_AHEAD, BACKOFF_BASE, BACKOFF_MAX, LENGTH, MAX_FRAME_BYTES, MAX_RETRIES, Link,
)
from repro.transport.tcp import _FrameReader
from repro.transport.wire import encode_message


def encoded(payload) -> bytes:
    return encode_message(Message("tick", "b", "a", payload=payload))


def stream_of(frames, tail=b""):
    return b"".join(LENGTH.pack(len(f)) + f for f in frames) + tail


def reference(stream):
    """(complete frames, whether a prefix above MAX_FRAME_BYTES ends them),
    parsed from the whole stream at once."""
    frames, pos = [], 0
    while len(stream) - pos >= 4:
        (length,) = LENGTH.unpack_from(stream, pos)
        if length > MAX_FRAME_BYTES:
            return frames, True
        if len(stream) - pos - 4 < length:
            break
        frames.append(stream[pos + 4:pos + 4 + length])
        pos += 4 + length
    return frames, False


class FakeConnection:
    aborted = False

    def abort(self):
        self.aborted = True


def frame_reader():
    """A ``_FrameReader`` whose owner and connection are stand-ins."""
    got = []
    owner = SimpleNamespace(
        _on_frame=lambda frame: got.append(bytes(frame)), stats=NetStats(),
        _closed=False, _connections=set(),
    )
    reader = _FrameReader(owner)
    reader.connection_made(FakeConnection())
    return reader, owner.stats, got


# -- the frame cutter ----------------------------------------------------------

_FOUR = [encoded(c * 40) for c in "abcd"]
_BIG = [encoded(1), encoded(np.arange(300_000 // 8, dtype=np.float64)), encoded(2)]

frames = st.lists(
    st.one_of(
        st.builds(encoded, st.one_of(
            st.integers(), st.text(max_size=40), st.binary(max_size=300),
        )),
        st.just(b""),  # a zero-length prefix
    ),
    max_size=6,
)
tails = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=3),  # a split prefix, never completed
    st.builds(  # a truncated last frame
        lambda body, keep: LENGTH.pack(len(body)) + body[:keep],
        st.binary(min_size=1, max_size=200), st.integers(0, 199),
    ).filter(lambda tail: len(tail) - 4 < LENGTH.unpack_from(tail)[0]),
    st.builds(  # an oversized prefix, then anything
        lambda length, rest: LENGTH.pack(length) + rest,
        st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1), st.binary(max_size=20),
    ),
    st.binary(max_size=64),  # garbage
)


@settings(max_examples=200, deadline=2000)
@given(frames=frames, tail=tails, cuts=st.lists(st.integers(0, 4096), max_size=12),
       ahead=st.sampled_from([ALLOC_AHEAD, 7]))
@example(frames=[encoded(i) for i in range(5)], tail=b"",
         cuts=list(range(2000)), ahead=ALLOC_AHEAD)  # one-byte chunks
@example(frames=_FOUR, tail=b"", ahead=ALLOC_AHEAD,  # 3.5 frames, then the rest
         cuts=[len(stream_of(_FOUR)) - (len(stream_of(_FOUR)) // 4) // 2])
@example(frames=_BIG, tail=b"", ahead=ALLOC_AHEAD,  # one frame across many chunks
         cuts=list(range(0, len(stream_of(_BIG)), 7001)))
@example(frames=[encoded(1), b"", encoded(2)], tail=b"", ahead=ALLOC_AHEAD,
         cuts=[len(stream_of([encoded(1)])) + 2])  # a split prefix, an empty frame
def test_cutter_yields_exactly_the_complete_frames(frames, tail, cuts, ahead):
    stream = stream_of(frames, tail)
    want, oversized = reference(stream)
    assert want[:len(frames)] == frames
    bounds = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
    reader, stats, got = frame_reader()
    with mock.patch.object(link_mod, "ALLOC_AHEAD", ahead):
        for start, stop in zip(bounds, bounds[1:]):
            reader.data_received(stream[start:stop])
            if reader.transport.aborted:
                break
    assert got == want
    assert stats.corrupted == int(oversized) == int(reader.transport.aborted)
    if not oversized:
        # nothing but the incomplete tail is held back
        held = len(reader.head) + (4 + reader.filled if reader.body is not None else 0)
        assert held == len(stream) - sum(4 + len(f) for f in want)


def test_a_bogus_prefix_allocates_the_cap_not_the_prefix():
    # 6 bytes claiming a 1 GiB frame used to allocate 1 GiB at once.
    reader, stats, got = frame_reader()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        reader.data_received(LENGTH.pack(MAX_FRAME_BYTES - 1) + b"ab")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= ALLOC_AHEAD + (64 << 10)
    assert got == [] and stats.corrupted == 0 and reader.filled == 2


@pytest.mark.parametrize("size", [131_072, 3 << 20])
def test_a_spanning_frame_grows_only_with_its_bytes(size):
    frame = bytes(range(256)) * (size // 256)
    stream = stream_of([frame])
    half = len(stream) // 2
    reader, _, got = frame_reader()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for at in range(0, half, 65536):
            reader.data_received(stream[at:min(at + 65536, half)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Half the frame is in: a frame within the cap is its one exact
    # buffer; a bigger one holds what arrived (+ bytearray's 1/8 growth
    # slack) and the cap, not its full size.  Plus one chunk in flight
    # and the copy a slice assignment from a memoryview makes of it.
    assert peak - base <= min(size, 1.125 * half + ALLOC_AHEAD) + 2 * 65536 + 4096
    reader.data_received(stream[half:])
    assert got == [frame]


# -- the link ----------------------------------------------------------------


class RecordingLink(Link):
    """A link whose outputs land in lists, on a clock the test moves."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.stats = NetStats()
        self.written, self.dropped, self.dials, self.timers = [], [], [], []

    def write(self, frame):
        self.written.append(frame)

    def dial(self):
        self.dials.append(self.now)

    def arm(self, delay):
        self.timers.append((self.now + delay, delay))

    def drop(self, frame):
        self.dropped.append(frame)
        self.stats.dropped_offline += 1


def run_model(seed: int, steps: int = 400) -> RecordingLink:
    """Drive one link with a random event sequence; check the contract
    after every event."""
    rng = random.Random(seed)
    p_fail = rng.choice([0.2, 0.8, 0.97])
    link = RecordingLink()
    sent, up, in_flight, timer, failures, failed_at, drops = (
        [], False, False, None, 0, None, 0)
    for _ in range(steps):
        events = ["send"] * 3
        if in_flight:
            events += ["dial"] * 3
        if timer:
            events.append("timer")
        if up:
            events += ["lost", "paused", "resumed"]
        event = rng.choice(events)
        dials, timers = len(link.dials), len(link.timers)
        if event == "send":
            sent.append(len(sent).to_bytes(4, "big"))
            link.send(sent[-1])
        elif event == "dial" and rng.random() < p_fail:
            in_flight = False
            failures += 1
            failed_at = link.now
            link.dial_failed()
            if failures > MAX_RETRIES:
                drops += 1
                failures = 0
                assert len(link.timers) == timers
            else:
                assert len(link.timers) == timers + 1
                timer = link.timers[-1]
        elif event == "dial":
            in_flight, up, failures = False, True, 0
            link.connected()
        elif event == "timer":
            (due, delay), timer = timer, None
            assert delay == min(BACKOFF_BASE * 2 ** (failures - 1), BACKOFF_MAX)
            link.now = due
            link.timer_fired()
            assert link.dials[-1] == failed_at + delay  # the re-dial, on time
        elif event == "lost":
            up = False
            link.lost()
        else:
            link.set_writable(event == "resumed")
        if len(link.dials) > dials:
            # one dial at a time, never while up or backing off, never idle
            assert len(link.dials) == dials + 1
            assert not (in_flight or up or timer) and link.pending
            in_flight = True
        link.now += rng.choice([0.0, 0.001, 0.5])
        # a FIFO subsequence, none twice; every frame accounted for once
        ids = [int.from_bytes(f, "big") for f in link.written]
        assert ids == sorted(set(ids))
        assert sorted(link.written + link.dropped + list(link.pending)) == sent
        # drops are oldest-first: nothing older is still waiting
        assert link.dropped == sorted(link.dropped)
        if link.dropped and link.pending:
            assert link.dropped[-1] < link.pending[0]
        assert link.stats.dropped_offline == len(link.dropped) == drops
        assert not (link.writable and link.pending)
    return link


@pytest.mark.parametrize("seed", range(60))
def test_link_keeps_its_delivery_contract(seed):
    run_model(seed)


def test_the_model_reaches_every_outcome():
    links = [run_model(seed) for seed in range(12)]
    assert sum(len(link.dropped) for link in links) > 0
    assert sum(len(link.timers) for link in links) > 0
    assert all(link.written for link in links[:5])
