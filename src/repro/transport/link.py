"""The TCP link layer as two socket-free state machines.

:class:`FrameCutter` cuts frames out of the chunks a socket delivers;
:class:`Link` is one pooled outbound link.  Neither imports ``asyncio``,
``socket`` or ``selectors`` (``tools/check_layering.py`` holds this
module to that) nor reads a clock: time enters a link only as
:meth:`Link.timer_fired`, so tests replay any interleaving on a fake
clock.  :class:`~repro.transport.tcp.TcpTransport` adapts both to asyncio.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Optional

from .wire import WireError

__all__ = ["FrameCutter", "Link"]

#: the 4-byte big-endian length prefix in front of every frame
LENGTH = struct.Struct(">I")
#: a prefix above this is refused (corrupt length prefix guard)
MAX_FRAME_BYTES = 1 << 30
#: how far a spanning frame's buffer may be allocated ahead of its bytes:
#: a bogus prefix costs at most this much until the bytes really arrive
ALLOC_AHEAD = 1 << 20
#: re-dial backoff and retry limit, as :class:`Link` uses them
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0
MAX_RETRIES = 10


class FrameCutter:
    """Length-prefixed frames cut out of a byte stream, in order.

    :meth:`feed` hands each complete frame to ``on_frame``: a frame
    inside one chunk as a slice of it; one that spans chunks gathered
    in ``body``, ``filled`` bytes of its ``want`` so far.  ``head``
    keeps a length prefix split across chunks.  ``body`` starts at no
    more than :data:`ALLOC_AHEAD` bytes and grows only as the frame's
    bytes arrive, so a frame up to that size is one exact allocation.
    """

    __slots__ = ("on_frame", "head", "body", "filled", "want")

    def __init__(self, on_frame: Callable[[bytes], None]) -> None:
        self.on_frame = on_frame
        self.head = b""
        self.body: Optional[bytearray] = None
        self.filled = 0
        self.want = 0

    def feed(self, data: bytes) -> None:
        """Cut ``data``; a prefix above :data:`MAX_FRAME_BYTES` raises
        :class:`~repro.transport.wire.WireError`: abandon the stream."""
        on_frame = self.on_frame
        pos, end = 0, len(data)
        while pos < end:
            body = self.body
            if body is not None:
                take = min(self.want - self.filled, end - pos)
                filled = self.filled + take
                # Past the end of a short body the assignment grows it.
                body[self.filled:filled] = memoryview(data)[pos:pos + take]
                pos += take
                if filled < self.want:
                    self.filled = filled
                    return
                self.body = None
                on_frame(body)
                continue
            if self.head or end - pos < 4:
                head = self.head + data[pos:pos + 4 - len(self.head)]
                pos += len(head) - len(self.head)
                if len(head) < 4:
                    self.head = head
                    return
                self.head = b""
                (length,) = LENGTH.unpack(head)
            else:
                (length,) = LENGTH.unpack_from(data, pos)
                pos += 4
            if length > MAX_FRAME_BYTES:
                raise WireError(f"length prefix {length} > MAX_FRAME_BYTES")
            if end - pos >= length:
                on_frame(data[pos:pos + length])
                pos += length
            else:
                self.body = bytearray(min(length, ALLOC_AHEAD))
                self.filled = 0
                self.want = length


class Link:
    """One pooled outbound link: pending FIFO, dialling, backoff, drops.

    Its inputs are its public methods.  Its outputs are the methods a
    subclass provides: ``write(frame)`` to the live connection;
    ``dial()``, answered by :meth:`connected` or :meth:`dial_failed`;
    ``arm(delay)``, answered by :meth:`timer_fired` after ``delay`` s;
    ``drop(frame)``, a frame that will never be written.  ``pending``
    holds frames only while nothing can take them: the link is not up
    (``busy`` with a dial or a backoff) or its connection's buffer is
    over the high-water mark; so ``writable`` implies it is empty.

    The delivery contract ("links fail without notice"): at most once,
    FIFO among delivered frames.  The k-th failed dial in a row is
    retried after ``min(BACKOFF_BASE · 2^(k-1), BACKOFF_MAX)`` s; the
    failure after ``MAX_RETRIES`` of them drops the oldest pending
    frame, and the next one starts its own count.  A frame written to a
    connection that then dies is lost: retries belong to the layers above.
    """

    __slots__ = ("pending", "attempts", "up", "writable", "busy")

    def __init__(self) -> None:
        self.pending: Deque[bytes] = deque()
        #: failed dials in a row since the last connection or drop
        self.attempts = 0
        self.up = False
        self.writable = False
        self.busy = False

    def send(self, frame: bytes) -> None:
        if self.writable:
            self.write(frame)
            return
        self.pending.append(frame)
        if not self.up:
            self._connect()

    def connected(self) -> None:
        self.busy = False
        self.up = True
        self.attempts = 0
        self.set_writable(True)

    def dial_failed(self) -> None:
        self.attempts += 1
        if self.attempts <= MAX_RETRIES:  # busy on, until the timer fires
            self.arm(min(BACKOFF_BASE * (2 ** (self.attempts - 1)), BACKOFF_MAX))
            return
        self.attempts = 0
        self.busy = False
        self.drop(self.pending.popleft())
        if self.pending:
            self._connect()

    def lost(self) -> None:
        self.up = self.writable = False
        if self.pending:
            self._connect()  # they were never handed over

    def set_writable(self, writable: bool) -> None:
        """The connection's write buffer fell below (True) or rose over
        (False) its high-water mark."""
        self.writable = writable
        pending = self.pending
        while pending and self.writable:
            self.write(pending.popleft())

    def timer_fired(self) -> None:
        self.busy = False
        self._connect()

    def _connect(self) -> None:
        if not self.busy:
            self.busy = True
            self.dial()
