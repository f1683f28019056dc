"""Deterministic budget for the real-socket frame path.

The sibling of ``test_alloc_budget.py`` for the TCP backend: what one
frame costs on the way through ``transport.wire`` and ``transport.tcp``,
stated as *counts* — bytes copied, tasks created, per-class lookups
repeated, frames that left without a pump — so the figures do not depend
on the machine and can gate on every Python the CI matrix runs.
"""

import asyncio
import dataclasses
import hashlib
import importlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.types import SampleSet
from repro.p2p.network import Message
from repro.transport import RealtimeSimulator, TcpTransport
from repro.transport.wire import (
    decode_message, encode, encode_message, result_checksum,
)


def exec_message(samples: int) -> Message:
    """A ``group-exec`` frame as the farm policy ships it."""
    payload = SampleSet(data=np.linspace(0.0, 1.0, samples), sampling_rate=1024.0)
    return Message(
        "group-exec", "controller", "worker-0",
        payload=("dep-1", [(7, [payload])]), size_bytes=payload.payload_nbytes() + 64,
    )


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs (its result kept alive)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - base


class TestCodecCopies:
    MIB_OF_FLOAT64 = (1 << 20) // 8

    def test_decoding_a_bulk_frame_copies_the_array_once(self):
        frame = encode_message(exec_message(self.MIB_OF_FLOAT64))
        decode_message(frame)  # plans compiled, imports done
        # The decoded array is the one copy; no slice of the body first.
        assert traced_peak(lambda: decode_message(frame)) <= 1.1 * len(frame)

    def test_encoding_a_bulk_frame_copies_the_array_once(self):
        message = exec_message(self.MIB_OF_FLOAT64)
        frame = encode_message(message)
        # The frame is joined from its pieces, the array's body read
        # straight out of the array: the bytes returned are the one copy.
        assert traced_peak(lambda: encode_message(message)) <= 1.1 * len(frame)

    def test_checksumming_a_run_copies_none_of_it(self):
        results = [[np.full(self.MIB_OF_FLOAT64, float(i))] for i in range(32)]
        digest = result_checksum(results)  # hashlib and the sink warmed
        # 32 MiB of results, hashed out of the arrays' own memory: the
        # encoding is never built, so the transient is below one leaf.
        assert traced_peak(lambda: result_checksum(results)) <= 1.1 * (1 << 20)
        assert digest == hashlib.sha256(encode(results)).hexdigest()


def test_warm_frames_repeat_no_per_class_work(monkeypatch):
    message = exec_message(280)
    decode_message(encode_message(message))  # the one warm-up frame
    calls = {"fields": 0, "import_module": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dataclasses, "fields", counting("fields", dataclasses.fields))
    monkeypatch.setattr(
        importlib, "import_module", counting("import_module", importlib.import_module)
    )
    for _ in range(100):
        out = decode_message(encode_message(message))
    assert out.payload[1][0][1][0].sampling_rate == 1024.0
    assert calls == {"fields": 0, "import_module": 0}


def interpreter_calls(fn, *args) -> int:
    """Python and C function calls made by ``fn(*args)``: the ``call``
    and ``c_call`` events a profile hook sees, the call of ``fn`` and of
    ``sys.setprofile`` that ends the count included.  The count is a
    list's item, not a ``nonlocal``: Python 3.10 writes a frame's locals
    back into its cells after each profile event, which would undo the
    hook's increment for the event ``sys.setprofile(None)`` raises here."""
    count = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count[0]


class TestWarmFrameCalls:
    """A warm frame of the pipeline's shape, in interpreter calls.

    What a small frame costs is mostly per-value interpreter overhead —
    one call per value to find its codec, a name check per field, a
    constructor — and wall time cannot gate it: on a shared CI runner
    one frame's 5-20 us move by more than the change this pins.  The
    number of calls does not move with the machine, nor between
    CPython 3.10 and 3.13: the frame's own calls give the same events
    on each, and every numpy function it calls is a C one.  The frame
    decodes in 84 and encodes in 73 calls with one if-chain per value,
    field names sliced and looked up, and no envelope memo; in 64 and
    60 with a codec per class, a table lookup per value and the memo
    (each piece an encoder hands over is one ``list.append``)."""

    def test_a_warm_decode(self):
        frame = encode_message(exec_message(256))
        decode_message(frame)
        decode_message(frame)
        assert interpreter_calls(decode_message, frame) <= 72

    def test_a_warm_encode(self):
        message = exec_message(256)
        encode_message(message)
        assert interpreter_calls(encode_message, message) <= 62


@pytest.fixture
def loopback_pair():
    """Two transports on 127.0.0.1, ``a`` -> ``b`` already connected."""
    sim_b = RealtimeSimulator()
    tb = TcpTransport(sim_b)
    got = []
    tb.add_node("b", got.append)
    sim_a = RealtimeSimulator()
    ta = TcpTransport(sim_a, peers={"b": ("127.0.0.1", tb.port)})
    ta.add_node("a", lambda msg: None)
    try:
        ta.send(Message("hello", "a", "b"))
        deadline = time.monotonic() + 30.0
        while not got:
            assert time.monotonic() < deadline, "loopback link never came up"
            ta.pump(0.01)
            tb.pump(0.01)
        got.clear()
        yield ta, tb, got
    finally:
        ta.close()
        tb.close()


def test_sends_leave_without_a_pump_on_the_sending_side(loopback_pair):
    ta, tb, got = loopback_pair
    for i in range(50):
        ta.send(Message("tick", "a", "b", payload=i))
    # Only the receiver turns its loop from here on.
    deadline = time.monotonic() + 30.0
    while len(got) < 50 and time.monotonic() < deadline:
        tb.pump(0.05)
    assert [msg.payload for msg in got] == list(range(50))


def test_blocking_pumps_create_no_tasks(loopback_pair, monkeypatch):
    ta, _tb, _got = loopback_pair
    created = []
    create_task = ta._loop.create_task

    def counting_create_task(coro, **kwargs):
        created.append(coro)
        return create_task(coro, **kwargs)

    monkeypatch.setattr(ta._loop, "create_task", counting_create_task)
    monkeypatch.setattr(
        asyncio, "ensure_future",
        lambda *a, **kw: pytest.fail("pump wrapped a coroutine in a future"),
    )
    started = time.monotonic()
    for _ in range(100):
        ta.pump(0.001)
    assert created == []
    # ... and they did block: 100 idle waits of 1 ms each.
    assert time.monotonic() - started >= 0.1


def test_activity_seen_by_a_non_blocking_pump_reaches_the_next_blocking_one(
    loopback_pair,
):
    ta, tb, got = loopback_pair
    ta.send(Message("tick", "a", "b"))
    deadline = time.monotonic() + 30.0
    while not got and time.monotonic() < deadline:
        tb.pump(0.0)
    assert got
    started = time.monotonic()
    tb.pump(5.0)  # returns at once: the frame above is news to the caller
    assert time.monotonic() - started < 1.0
    started = time.monotonic()
    tb.pump(0.05)  # nothing new: waits its bound out
    assert time.monotonic() - started >= 0.04
