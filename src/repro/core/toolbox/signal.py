"""Signal-processing units — the toolbox family behind Fig. 1/2.

Implements the paper's demonstration workflow (Wave → GaussianNoise →
FFT → PowerSpectrum → AccumStat → Grapher) plus the gains, mixers and
filters the workloads build with.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from ..errors import UnitError
from ..registry import register_unit
from ..types import ComplexSpectrum, SampleSet, Spectrum
from ..units import (
    ParamSpec,
    Unit,
    _finite,
    _non_negative,
    _non_negative_int,
    _one_of,
    _positive,
    _positive_int,
)

__all__ = [
    "Wave",
    "GaussianNoise",
    "FFT",
    "InverseFFT",
    "PowerSpectrum",
    "AccumStat",
    "Gain",
    "Mixer",
    "LowPass",
    "HighPass",
]


# The toolbox's frames are short (a pipeline stage filters 64 samples), and
# there the dtype and axis handling of numpy's ``np.fft`` wrapper costs
# more than the transform it wraps (docs/performance.md, "A small frame
# pays for its transform").  These call the pocketfft gufuncs under it
# directly, with the arguments the wrapper passes for a 1-D frame
# (``fct`` 1 forward and 1/n back, a fresh C-contiguous output), so the
# bits are ``np.fft``'s.  The output is never a reused buffer: a unit's
# outputs are shipped and cached.


def _rfft_kernel(n: int) -> np.ufunc:
    """The forward gufunc ``np.fft.rfft`` picks for an ``n``-sample frame."""
    return _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd


def _rfft(data: np.ndarray, kernel: np.ufunc) -> np.ndarray:
    """``np.fft.rfft(data)`` for float64 ``data``, by ``_rfft_kernel(len(data))``."""
    return kernel(data, 1, out=np.empty(len(data) // 2 + 1, dtype=complex))


def _irfft(spec: np.ndarray, n: int, fct: float) -> np.ndarray:
    """``np.fft.irfft(spec, n=n)`` for complex128 ``spec``; ``fct`` is ``1 / n``."""
    return _pocketfft.irfft(spec, fct, out=np.empty(n))


@register_unit(category="signal")
class Wave(Unit):
    """Periodic waveform source with phase continuity across iterations."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("frequency", 64.0, "oscillation frequency, Hz", _positive),
        ParamSpec("amplitude", 1.0, "peak amplitude", _finite),
        ParamSpec("samples", 256, "samples per output frame", _positive_int),
        ParamSpec("sampling_rate", 1024.0, "samples per second", _positive),
        ParamSpec(
            "waveform", "sine", "sine | square | sawtooth",
            _one_of("sine", "square", "sawtooth"),
        ),
    )

    def reset(self) -> None:
        self._frame = 0

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        n = int(self.get_param("samples"))
        fs = float(self.get_param("sampling_rate"))
        f = float(self.get_param("frequency"))
        a = float(self.get_param("amplitude"))
        t0 = self._frame * n / fs
        t = t0 + np.arange(n) / fs
        phase = 2.0 * np.pi * f * t
        kind = self.get_param("waveform")
        if kind == "sine":
            data = a * np.sin(phase)
        elif kind == "square":
            data = a * np.sign(np.sin(phase))
        else:  # sawtooth
            data = a * (2.0 * ((f * t) % 1.0) - 1.0)
        self._frame += 1
        return [SampleSet(data=data, sampling_rate=fs, t0=t0)]


@register_unit(category="signal")
class GaussianNoise(Unit):
    """Contaminates a sample set with white Gaussian noise (Fig. 1).

    The draws are reproducible: the stream restarts from ``seed`` on reset.
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("sigma", 1.0, "noise standard deviation", _non_negative),
        ParamSpec("seed", 0, "noise stream seed", _non_negative_int),
    )

    def reset(self) -> None:
        self._rng = np.random.default_rng(int(self.get_param("seed")))

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        sigma = float(self.get_param("sigma"))
        noisy = sig.data + self._rng.normal(0.0, sigma, len(sig.data))
        return [SampleSet(data=noisy, sampling_rate=sig.sampling_rate, t0=sig.t0)]


@register_unit(category="signal")
class FFT(Unit):
    """Real FFT: SampleSet → one-sided ComplexSpectrum."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (ComplexSpectrum,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        n = len(sig.data)
        if n == 0:
            raise UnitError("FFT: empty input")
        spec = _rfft(sig.data, _rfft_kernel(n))
        return [ComplexSpectrum(data=spec, df=sig.sampling_rate / n)]

    def estimated_flops(self, input_nbytes: int) -> float:
        n = max(input_nbytes / 8.0, 2.0)
        return 5.0 * n * np.log2(n)


@register_unit(category="signal")
class InverseFFT(Unit):
    """One-sided ComplexSpectrum → SampleSet (inverse of :class:`FFT`)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ComplexSpectrum,)
    OUTPUT_TYPES = (SampleSet,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (spec,) = inputs
        n_time = 2 * (len(spec.data) - 1)
        if n_time < 1:
            raise UnitError(
                f"InverseFFT: a spectrum needs at least 2 bins, got {len(spec.data)}"
            )
        data = _irfft(spec.data, n_time, 1 / n_time)
        return [SampleSet(data=data, sampling_rate=spec.df * n_time)]

    def estimated_flops(self, input_nbytes: int) -> float:
        n = max(input_nbytes / 16.0, 2.0)
        return 5.0 * n * np.log2(n)


@register_unit(category="signal")
class PowerSpectrum(Unit):
    """|X(f)|² normalised by N² — the quantity AccumStat averages."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ComplexSpectrum,)
    OUTPUT_TYPES = (Spectrum,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (spec,) = inputs
        n_time = 2 * (len(spec.data) - 1)
        power = np.abs(spec.data) ** 2 / max(n_time, 1) ** 2
        return [Spectrum(data=power, df=spec.df)]


@register_unit(category="signal")
class AccumStat(Unit):
    """Running mean of successive spectra (Fig. 1's noise remover).

    "uses a unit called AccumStat to average the spectra over successive
    iterations to remove the noise from the original signal."
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (Spectrum,)
    OUTPUT_TYPES = (Spectrum,)

    def reset(self) -> None:
        self._count = 0
        self._sum: np.ndarray | None = None
        self._df = 1.0

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (spec,) = inputs
        if self._sum is None:
            self._sum = np.zeros_like(spec.data)
            self._df = spec.df
        elif self._sum.shape != spec.data.shape:
            raise UnitError(
                f"AccumStat: spectrum length changed "
                f"({self._sum.shape} -> {spec.data.shape})"
            )
        self._sum = self._sum + spec.data
        self._count += 1
        return [Spectrum(data=self._sum / self._count, df=self._df)]


@register_unit(category="signal")
class Gain(Unit):
    """Multiply a sample set by a constant factor."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (ParamSpec("factor", 1.0, "gain factor", _finite),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        return [
            SampleSet(
                data=sig.data * float(self.get_param("factor")),
                sampling_rate=sig.sampling_rate,
                t0=sig.t0,
            )
        ]


@register_unit(category="signal")
class Mixer(Unit):
    """Sum two equal-rate sample sets."""

    NUM_INPUTS = 2
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        a, b = inputs
        if a.sampling_rate != b.sampling_rate:
            raise UnitError(
                f"Mixer: rate mismatch {a.sampling_rate} vs {b.sampling_rate}"
            )
        n = min(len(a.data), len(b.data))
        return [
            SampleSet(
                data=a.data[:n] + b.data[:n],
                sampling_rate=a.sampling_rate,
                t0=a.t0,
            )
        ]


class _FFTFilter(Unit):
    """Zero out FFT bins outside the pass region.

    The stop band (as bin indices), the forward gufunc and the inverse
    scale depend only on the frame length, the sampling rate and the
    cutoff, so they are kept and rebuilt when any of them changes.
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)

    #: the kept stop-band bins, forward gufunc and inverse scale, and the
    #: key they were built for
    _stop: np.ndarray | None = None
    _kernel: np.ufunc | None = None
    _fct: float = 1.0
    _stop_key: tuple | None = None

    def _mask(self, freqs: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        n = len(sig.data)
        if n == 0:
            raise UnitError(f"{type(self).__name__}: empty input")
        rate = sig.sampling_rate
        # The rate's type is in the key: an equal float32 rate gives other bins.
        key = (n, rate, type(rate), self.get_param("cutoff"))
        if key != self._stop_key:
            freqs = np.fft.rfftfreq(n, d=1.0 / rate)
            self._stop = np.flatnonzero(~self._mask(freqs))
            self._kernel, self._fct, self._stop_key = _rfft_kernel(n), 1 / n, key
        spec = _rfft(sig.data, self._kernel)
        spec[self._stop] = 0.0
        data = _irfft(spec, n, self._fct)
        return [SampleSet(data=data, sampling_rate=sig.sampling_rate, t0=sig.t0)]

    def estimated_flops(self, input_nbytes: int) -> float:
        n = max(input_nbytes / 8.0, 2.0)
        return 10.0 * n * np.log2(n)


@register_unit(category="signal")
class LowPass(_FFTFilter):
    """Ideal low-pass filter at ``cutoff`` Hz."""

    PARAMETERS = (ParamSpec("cutoff", 100.0, "cutoff frequency, Hz", _positive),)

    def _mask(self, freqs: np.ndarray) -> np.ndarray:
        return freqs <= float(self.get_param("cutoff"))


@register_unit(category="signal")
class HighPass(_FFTFilter):
    """Ideal high-pass filter at ``cutoff`` Hz."""

    PARAMETERS = (ParamSpec("cutoff", 100.0, "cutoff frequency, Hz", _positive),)

    def _mask(self, freqs: np.ndarray) -> np.ndarray:
        return freqs >= float(self.get_param("cutoff"))
