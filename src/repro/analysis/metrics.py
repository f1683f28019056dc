"""Metrics shared by the experiment harness."""

from __future__ import annotations

import numpy as np

from ..core.types import Spectrum

__all__ = [
    "spectrum_snr",
    "speedup",
    "parallel_efficiency",
    "SECONDS_PER_YEAR",
]

SECONDS_PER_YEAR = 365.25 * 86_400.0


def spectrum_snr(spectrum: Spectrum, signal_hz: float, guard_bins: int = 2) -> float:
    """Peak-to-noise-floor ratio of a spectrum at a known line frequency.

    The Fig. 2 quantity: the 64 Hz line against the standard deviation of
    the surrounding noise bins (excluding a guard band around the line
    and the DC bins).
    """
    if len(spectrum) < 8:
        raise ValueError("spectrum too short for an SNR estimate")
    signal_bin = int(round(signal_hz / spectrum.df))
    if not 0 <= signal_bin < len(spectrum):
        raise ValueError(f"signal at {signal_hz} Hz outside the spectrum")
    mask = np.ones(len(spectrum.data), dtype=bool)
    lo = max(signal_bin - guard_bins, 0)
    hi = min(signal_bin + guard_bins + 1, len(spectrum.data))
    mask[lo:hi] = False
    mask[: min(3, len(mask))] = False
    noise = spectrum.data[mask]
    sigma = noise.std()
    if sigma == 0:
        return float("inf")
    return float(spectrum.data[signal_bin] / sigma)


def speedup(t_baseline: float, t_parallel: float) -> float:
    """Classic speedup; infinite when the parallel run is instantaneous."""
    if t_baseline < 0 or t_parallel < 0:
        raise ValueError("times must be >= 0")
    if t_parallel == 0:
        return float("inf")
    return t_baseline / t_parallel


def parallel_efficiency(t_baseline: float, t_parallel: float, workers: int) -> float:
    """Speedup normalised by worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return speedup(t_baseline, t_parallel) / workers
