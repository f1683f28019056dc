"""Compute-level faults: peers that return *wrong answers*, not silence.

The transport faults in :mod:`repro.faults.plan` (loss/corrupt/
duplicate/reorder) model a hostile *network*; every one of them is
detectable at the message layer (timeouts, checksums, dedup, ordering)
and therefore absorbed by the recovery machinery without changing
results.  This module models a
hostile *peer*: a volunteer whose machine computes the work but returns
plausible-but-wrong payloads — overclocked RAM, a tampered client, or an
outright saboteur farming credit.  No checksum can catch it, because the
wrong answer is wrapped in a perfectly valid message.

Three behaviours, all driven by :class:`ComputeFaultModel`:

* ``saboteur`` — a *consistent* liar: whether iteration ``i`` is
  corrupted, and what the corrupted payload looks like, is a pure
  function of ``(seed, peer, iteration)``.  Re-executing on the same
  peer reproduces the same wrong answer — which is exactly why result
  verification must replicate across *disjoint* peers.
* ``flaky_compute`` — a *transient* liar: each execution draws fresh, so
  a re-execution (even on the same peer) usually comes back clean.
  Models marginal hardware rather than malice.
* ``liar_heartbeat`` — a saboteur whose liveness signals stay pristine.
  In this simulation heartbeats are always healthy unless a peer is
  down, so the kind is behaviourally a saboteur; it exists as a distinct
  kind so plans, logs and reports can separate *loud* failures (crash,
  straggle) from *silent* ones that only result voting can expose.

The injector installs one model per target peer into
``SimNetwork.compute_faults`` (a neutral dict the p2p layer carries);
the worker service consults it after each execution.  The layering gate
enforces that this package never imports ``repro.service`` — integrity
hooks flow one way.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["COMPUTE_FAULT_KINDS", "ComputeFaultWindow", "ComputeFaultModel"]

#: Fault kinds that tamper with computed results instead of messages.
COMPUTE_FAULT_KINDS = frozenset({"saboteur", "flaky_compute", "liar_heartbeat"})


def _stable_hash(text: str) -> int:
    """Deterministic across processes (``hash()`` is salted per run)."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class ComputeFaultWindow:
    """One active tampering window on one peer."""

    kind: str
    seed: int
    fraction: float
    #: window bounds in simulation time; ``until=inf`` means permanent
    since: float = 0.0
    until: float = float("inf")

    def active(self, now: float) -> bool:
        return self.since <= now < self.until


@dataclass
class ComputeFaultModel:
    """Per-peer tampering state the worker consults after each execution.

    The model never sees service-layer objects — it is handed primitive
    identifiers (peer id, deployment id, iteration) and the raw output
    payload list, and returns a (possibly tampered) copy plus a flag.
    """

    peer_id: str
    windows: list[ComputeFaultWindow] = field(default_factory=list)
    #: executions seen (feeds the per-execution draw of ``flaky_compute``)
    executions: int = 0
    #: tampered results produced, by fault kind
    tampered: dict[str, int] = field(default_factory=dict)

    def add_window(self, window: ComputeFaultWindow) -> None:
        self.windows.append(window)

    def remove_window(self, window: ComputeFaultWindow) -> None:
        if window in self.windows:
            self.windows.remove(window)

    def apply(
        self, deployment_id: str, iteration: int, outputs: list[Any], now: float
    ) -> tuple[list[Any], str]:
        """Possibly tamper with one execution's outputs.

        Returns ``(outputs, kind)`` — the original list and ``""`` when
        untouched, or a tampered deep copy and the responsible fault
        kind.  The original objects are never mutated (they belong to
        the worker's live engine).
        """
        self.executions += 1
        for window in self.windows:
            if not window.active(now):
                continue
            if window.kind == "flaky_compute":
                # Transient: every execution draws fresh.
                entropy = [window.seed, _stable_hash(self.peer_id), self.executions]
            else:
                # Consistent: a pure function of (seed, peer, iteration),
                # so a re-execution here repeats the same wrong answer.
                entropy = [window.seed, _stable_hash(self.peer_id), iteration]
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            if float(rng.random()) >= window.fraction:
                continue
            tampered = [_tamper_value(copy.deepcopy(v), rng) for v in outputs]
            self.tampered[window.kind] = self.tampered.get(window.kind, 0) + 1
            return tampered, window.kind
        return outputs, ""

    def summary(self) -> dict[str, Any]:
        return {
            "peer": self.peer_id,
            "executions": self.executions,
            "tampered": dict(sorted(self.tampered.items())),
        }


def _tamper_value(value: Any, rng, structural: bool = True) -> Any:
    """Perturb one payload into a plausible-but-wrong sibling.

    Numeric content is always preferred: arrays are scaled and offset
    slightly and scalar cells are nudged, and because every nudge draws
    from ``rng`` (seeded per peer) two independent saboteurs can never
    agree on the same wrong answer — lying quorums would defeat result
    voting.  Only when a payload holds no numeric content anywhere does
    the ``structural`` fallback drop an rng-chosen element.  Payloads
    with no tamperable content at all are returned unchanged — the
    digest then matches and the "corruption" is harmless by
    construction.
    """
    if isinstance(value, np.ndarray):
        return _tamper_array(value, rng)
    if isinstance(value, (list, tuple)):
        return _tamper_sequence(value, rng, structural)
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        return value * (1.0 + 0.05 * (1.0 + float(rng.random())))
    if hasattr(value, "__dict__"):
        # Two passes: find a numeric cell in *any* attribute before
        # falling back to a structural drop in the first one.
        for pass_structural in (False, True) if structural else (False,):
            for name, attr in sorted(vars(value).items()):
                replaced = _tamper_value(attr, rng, pass_structural)
                if replaced is not attr:
                    setattr(value, name, replaced)
                    return value
    return value


def _tamper_array(array: np.ndarray, rng) -> np.ndarray:
    if array.size == 0 or not np.issubdtype(array.dtype, np.number):
        return array
    scale = 1.0 + 0.02 * (1.0 + float(rng.random()))
    offset = 0.01 * (1.0 + float(rng.random()))
    if np.issubdtype(array.dtype, np.integer):
        return (array + max(1, int(round(offset * 100)))).astype(array.dtype)
    return (array * scale + offset).astype(array.dtype, copy=False)


def _tamper_sequence(seq, rng, structural: bool = True):
    items = list(seq)
    for index, item in enumerate(items):
        replaced = _tamper_value(item, rng, structural=False)
        if replaced is not item or (
            isinstance(item, (int, float)) and replaced != item
        ):
            items[index] = replaced
            return type(seq)(items) if isinstance(seq, tuple) else items
    if structural and items:
        # No numeric cell anywhere: drop an rng-chosen element (never a
        # fixed one — a deterministic drop would let two independent
        # saboteurs agree on the same lie).
        del items[int(rng.integers(len(items)))]
        return type(seq)(items) if isinstance(seq, tuple) else items
    return seq
