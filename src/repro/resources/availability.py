"""Volunteer availability models (the consumer in the Consumer Grid).

§3.7: "make user's CPU available when their workstation is idle i.e. when
the screen saver turns on" — and Case 2 lists the downtime sources the
sizing must absorb: "connection lost, user intervenes, computational
bandwidth not reached".

The models share one interface: ``install(peer)`` spawns a simkernel
process that toggles the peer on/off and invokes registered listeners.
All randomness comes from named simulator streams, so a seed fully
determines every session pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..p2p.peer import Peer
from ..simkernel import Simulator
from .errors import ResourceError

__all__ = [
    "AvailabilityStats",
    "AvailabilityModel",
    "PoissonChurn",
    "ScreensaverCycle",
    "ScriptedAvailability",
]


@dataclass
class AvailabilityStats:
    sessions: int = 0
    online_seconds: float = 0.0
    offline_seconds: float = 0.0

    @property
    def availability(self) -> float:
        total = self.online_seconds + self.offline_seconds
        return self.online_seconds / total if total > 0 else 1.0


class AvailabilityModel:
    """Base class: drives one peer's liveness and notifies listeners."""

    def __init__(self):
        self.stats = AvailabilityStats()
        self._on_down: list[Callable[[Peer], None]] = []
        self._on_up: list[Callable[[Peer], None]] = []

    def on_down(self, fn: Callable[[Peer], None]) -> None:
        """Register a churn listener (the controller migrates work here)."""
        self._on_down.append(fn)

    def on_up(self, fn: Callable[[Peer], None]) -> None:
        self._on_up.append(fn)

    def _go_down(self, peer: Peer) -> None:
        peer.go_offline()
        for fn in self._on_down:
            fn(peer)

    def _go_up(self, peer: Peer) -> None:
        peer.go_online()
        self.stats.sessions += 1
        for fn in self._on_up:
            fn(peer)

    def install(self, peer: Peer) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def expected_availability(self) -> float:  # pragma: no cover - overridden
        """Long-run fraction of time the peer is online."""
        raise NotImplementedError


class PoissonChurn(AvailabilityModel):
    """Exponential on/off churn ("connection lost, user intervenes").

    Parameters
    ----------
    mean_uptime / mean_downtime:
        Means of the exponential session and gap lengths, seconds.
    """

    def __init__(self, mean_uptime: float, mean_downtime: float, stream: str = "churn"):
        super().__init__()
        if mean_uptime <= 0 or mean_downtime <= 0:
            raise ResourceError("mean up/down times must be positive")
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.stream = stream

    def expected_availability(self) -> float:
        return self.mean_uptime / (self.mean_uptime + self.mean_downtime)

    def install(self, peer: Peer) -> None:
        sim = peer.sim
        rng = sim.rng(f"{self.stream}/{peer.peer_id}")

        def cycle(sim: Simulator):
            self.stats.sessions += 1
            while True:
                up = rng.exponential(self.mean_uptime)
                yield sim.timeout(up)
                self.stats.online_seconds += up
                self._go_down(peer)
                down = rng.exponential(self.mean_downtime)
                yield sim.timeout(down)
                self.stats.offline_seconds += down
                self._go_up(peer)

        sim.process(cycle(sim), name=f"churn/{peer.peer_id}")


class ScreensaverCycle(AvailabilityModel):
    """Deterministic diurnal cycle: the machine volunteers while idle.

    Each period of ``day_seconds`` contains one contiguous idle window of
    ``idle_fraction`` of the day; the window's offset is drawn once per
    peer, so a fleet's windows are staggered like real timezone/habit
    spread.  Outside the window the owner is using the machine.
    """

    def __init__(
        self,
        idle_fraction: float = 0.6,
        day_seconds: float = 86_400.0,
        stream: str = "screensaver",
    ):
        super().__init__()
        if not 0 < idle_fraction <= 1.0:
            raise ResourceError("idle_fraction must be in (0, 1]")
        self.idle_fraction = idle_fraction
        self.day_seconds = day_seconds
        self.stream = stream

    def install(self, peer: Peer) -> None:
        sim = peer.sim
        rng = sim.rng(f"{self.stream}/{peer.peer_id}")
        offset = float(rng.uniform(0, self.day_seconds))
        idle_len = self.idle_fraction * self.day_seconds
        busy_len = self.day_seconds - idle_len

        def cycle(sim: Simulator):
            # Phase in: the machine starts busy until its idle window opens.
            if offset > 0:
                self._go_down(peer)
                yield sim.timeout(offset)
                self.stats.offline_seconds += offset
                self._go_up(peer)
            else:
                self.stats.sessions += 1
            while True:
                yield sim.timeout(idle_len)
                self.stats.online_seconds += idle_len
                if busy_len <= 0:
                    continue
                self._go_down(peer)
                yield sim.timeout(busy_len)
                self.stats.offline_seconds += busy_len
                self._go_up(peer)

        sim.process(cycle(sim), name=f"screensaver/{peer.peer_id}")


class ScriptedAvailability(AvailabilityModel):
    """Outages at scripted absolute times (the chaos layer's crash model).

    ``windows`` is a list of ``(start, duration)`` pairs in absolute
    simulation time; ``duration <= 0`` means the peer never comes back.
    Unlike the stochastic models this one is a *script*: the fault
    injector uses it so that injected crashes flow through the same
    stats/listener machinery as organic churn.
    """

    def __init__(self, windows: list[tuple[float, float]]):
        super().__init__()
        self.windows = sorted((float(s), float(d)) for s, d in windows)
        for (s, d), (s2, _d2) in zip(self.windows, self.windows[1:]):
            if d <= 0 or s + d > s2:
                raise ResourceError(
                    f"outage windows must be finite and non-overlapping "
                    f"(({s}, {d}) then start {s2})"
                )
        if any(s < 0 for s, _ in self.windows):
            raise ResourceError("outage windows must start at t >= 0")

    def install(self, peer: Peer) -> None:
        sim = peer.sim
        self.stats.sessions += 1

        def script(sim: Simulator):
            last = sim.now
            for start, duration in self.windows:
                if start < sim.now:
                    continue  # scheduled in the past: skip, don't fire late
                yield sim.timeout(start - sim.now)
                self.stats.online_seconds += sim.now - last
                self._go_down(peer)
                if duration <= 0:
                    return  # permanent crash
                yield sim.timeout(duration)
                self.stats.offline_seconds += duration
                self._go_up(peer)
                last = sim.now

        sim.process(script(sim), name=f"scripted/{peer.peer_id}")
