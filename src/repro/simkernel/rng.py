"""Deterministic named random-number streams.

Every stochastic component of the simulator draws from a stream obtained by
name from a :class:`RngRegistry`.  Streams are derived from the registry's
root seed and the stream name only, so adding a new consumer of randomness
never perturbs the draws seen by existing consumers — a property the
reproducibility tests rely on.

A stream is read one way: as a ``numpy`` generator (:meth:`RngRegistry.stream`)
or, on hot paths that only want uniform doubles, one double per call from
blocks (:meth:`RngRegistry.draws`).  A name claimed one way cannot be
claimed the other, so every name keeps one draw order.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator

import numpy as np

__all__ = ["RngRegistry", "stable_hash"]

#: doubles a :meth:`RngRegistry.draws` stream takes from its generator at once
_BLOCK = 256


def stable_hash(text: str) -> int:
    """Return a platform-stable 64-bit hash of ``text``.

    Python's builtin ``hash`` is salted per-process; benchmarks and tests
    need stream derivation that is identical across runs and machines.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """A factory of independent, reproducible ``numpy`` generators.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation.  Two registries built with the
        same seed hand out identical streams for identical names.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._draws: dict[str, Callable[[], float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumers share draw state within one registry.
        Raises ``ValueError`` if ``name`` is already taken by :meth:`draws`.
        """
        if name not in self._streams:
            if name in self._draws:
                raise ValueError(f"stream {name!r} is already drawn in blocks by draws()")
            ss = np.random.SeedSequence([self._seed, stable_hash(name)])
            self._streams[name] = np.random.default_rng(ss)
        return self._streams[name]

    def draws(self, name: str) -> Callable[[], float]:
        """Return a callable that hands out ``name``'s next double in [0, 1).

        The doubles are the ones ``fresh(name).random()`` returns call by
        call, taken from the generator in blocks: ``random(k)`` yields the
        same doubles as ``k`` scalar ``random()`` calls, and one call of
        the callable costs a generator resumption instead of a locked
        numpy call.  ``lo + (hi - lo) * u`` is ``uniform(lo, hi)`` to the
        bit, which is how numpy computes it.  Repeated calls with the
        same name return the same callable; raises ``ValueError`` if
        ``name`` is already taken by :meth:`stream`.
        """
        draw = self._draws.get(name)
        if draw is None:
            if name in self._streams:
                raise ValueError(f"stream {name!r} is already taken by stream()")
            draw = self._draws[name] = self._blocks(name).__next__
        return draw

    def _blocks(self, name: str) -> Iterator[float]:
        # The generator is built on the first draw, not on the claim.
        random = self.fresh(name).random
        while True:
            yield from random(_BLOCK).tolist()

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name``, ignoring cached state.

        Useful when a test wants the stream's initial draws regardless of
        what other code already consumed.
        """
        ss = np.random.SeedSequence([self._seed, stable_hash(name)])
        return np.random.default_rng(ss)
