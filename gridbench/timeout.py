"""Hard wall-clock limits: a SIGALRM that nothing in the program swallows."""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["RepTimeout", "hard_timeout", "close_within", "alarm_deferred"]


class RepTimeout(KeyboardInterrupt):
    """A repetition blew its hard wall-clock limit (raised from SIGALRM).

    The alarm usually fires inside the transport's event loop.  The TCP
    transport swallows ``Exception`` raised in message handlers, and
    asyncio turns any other ``BaseException`` raised in a socket callback
    into a "fatal read error" on that one connection and carries on — a
    wedged rep would swallow its own timeout.  ``KeyboardInterrupt`` is
    the one exception both let through, so the timeout is one.
    """


class hard_timeout:
    """SIGALRM-backed wall-clock limit.  Nests: leaving an inner limit
    re-arms the enclosing one with the time it has left.

    The alarm repeats every :attr:`AGAIN_S` until the block is left: a
    signal that lands in a destructor or a weakref callback is printed
    and dropped by the interpreter, and a wedged rep would stay wedged.
    """

    AGAIN_S = 5.0

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise RepTimeout(f"exceeded {self.seconds:.0f} s")

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._fire)
        self._outer_left, _ = signal.setitimer(
            signal.ITIMER_REAL, self.seconds, self.AGAIN_S
        )
        self._entered = time.monotonic()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if self._outer_left:
            left = self._outer_left - (time.monotonic() - self._entered)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3), self.AGAIN_S)
        return False


@contextmanager
def alarm_deferred() -> Iterator[None]:
    """Hold SIGALRM back for a short, bounded stretch that must not be
    cut short (reaping children); a pending alarm is delivered on exit."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def close_within(closeable: Any, seconds: float = 10.0) -> bool:
    """``closeable.close()`` under an alarm of its own; False if it had
    to be abandoned.

    The enclosing limit may already be spent when a failed rep is torn
    down, and ``TcpTransport.close()`` can wait for ever: it gathers its
    cancelled tasks, and a writer task cancelled just as its connect
    completes swallows the cancellation (``asyncio.wait_for`` before
    Python 3.12) and goes back to waiting for frames.
    """
    try:
        with hard_timeout(seconds):
            closeable.close()
    except RepTimeout:
        return False
    return True
