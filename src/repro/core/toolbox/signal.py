"""Signal-processing units — the toolbox family behind Fig. 1/2.

Implements the paper's demonstration workflow (Wave → GaussianNoise →
FFT → PowerSpectrum → AccumStat → Grapher) plus the filtering/correlation
units a signal-analysis toolbox needs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..errors import UnitError
from ..registry import register_unit
from ..types import (
    ComplexSpectrum,
    GraphData,
    SampleSet,
    Spectrum,
    TimeFrequency,
)
from ..units import ParamSpec, Unit

__all__ = [
    "Wave",
    "ChirpGenerator",
    "GaussianNoise",
    "UniformNoise",
    "FFT",
    "InverseFFT",
    "PowerSpectrum",
    "AmplitudeSpectrum",
    "AccumStat",
    "Spectrogram",
    "Gain",
    "Offset",
    "Mixer",
    "WindowFn",
    "LowPass",
    "HighPass",
    "Decimate",
    "Correlate",
    "SpectrumToGraph",
    "SampleSetToGraph",
]


def _positive(x) -> None:
    if not x > 0:
        raise ValueError(f"must be positive, got {x!r}")


def _positive_int(x) -> None:
    if not isinstance(x, (int, np.integer)) or x < 1:
        raise ValueError(f"must be a positive integer, got {x!r}")


def _non_negative(x) -> None:
    if x < 0:
        raise ValueError(f"must be >= 0, got {x!r}")


@register_unit(category="signal")
class Wave(Unit):
    """Periodic waveform source with phase continuity across iterations."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("frequency", 64.0, "oscillation frequency, Hz", _positive),
        ParamSpec("amplitude", 1.0, "peak amplitude"),
        ParamSpec("samples", 256, "samples per output frame", _positive),
        ParamSpec("sampling_rate", 1024.0, "samples per second", _positive),
        ParamSpec("waveform", "sine", "sine | square | sawtooth"),
    )

    def reset(self) -> None:
        self._frame = 0

    def checkpoint(self) -> dict[str, Any]:
        return {"frame": self._frame}

    def restore(self, state: dict[str, Any]) -> None:
        self._frame = int(state.get("frame", 0))

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
        elif kind == "sawtooth":
            data = a * (2.0 * ((f * t) % 1.0) - 1.0)
        else:
            raise UnitError(f"Wave: unknown waveform {kind!r}")
        self._frame += 1
        return [SampleSet(data=data, sampling_rate=fs, t0=t0)]


@register_unit(category="signal")
class ChirpGenerator(Unit):
    """Linear-frequency chirp source (test signal for inspiral-style work)."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("f0", 40.0, "start frequency, Hz", _positive),
        ParamSpec("f1", 200.0, "end frequency, Hz", _positive),
        ParamSpec("duration", 1.0, "seconds", _positive),
        ParamSpec("amplitude", 1.0, "peak amplitude"),
        ParamSpec("sampling_rate", 2048.0, "samples per second", _positive),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        fs = float(self.get_param("sampling_rate"))
        dur = float(self.get_param("duration"))
        f0 = float(self.get_param("f0"))
        f1 = float(self.get_param("f1"))
        a = float(self.get_param("amplitude"))
        t = np.arange(int(round(dur * fs))) / fs
        # Instantaneous phase of a linear chirp: 2π (f0 t + (f1-f0) t² / 2T).
        phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t**2 / dur)
        return [SampleSet(data=a * np.sin(phase), sampling_rate=fs)]


class _NoiseUnit(Unit):
    """Shared machinery for additive-noise units with reproducible draws."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)

    def reset(self) -> None:
        self._rng = np.random.default_rng(int(self.get_param("seed")))

    def checkpoint(self) -> dict[str, Any]:
        return {"rng_state": self._rng.bit_generator.state}

    def restore(self, state: dict[str, Any]) -> None:
        if "rng_state" in state:
            self._rng.bit_generator.state = state["rng_state"]

    def _draw(self, n: int) -> np.ndarray:  # pragma: no cover - overridden
        raise NotImplementedError

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        noisy = sig.data + self._draw(len(sig.data))
        return [SampleSet(data=noisy, sampling_rate=sig.sampling_rate, t0=sig.t0)]


@register_unit(category="signal")
class GaussianNoise(_NoiseUnit):
    """Contaminates a sample set with white Gaussian noise (Fig. 1)."""

    PARAMETERS = (
        ParamSpec("sigma", 1.0, "noise standard deviation", _non_negative),
        ParamSpec("seed", 0, "noise stream seed"),
    )

    def _draw(self, n: int) -> np.ndarray:
        return self._rng.normal(0.0, float(self.get_param("sigma")), n)


@register_unit(category="signal")
class UniformNoise(_NoiseUnit):
    """Adds uniform noise in [-width/2, +width/2]."""

    PARAMETERS = (
        ParamSpec("width", 1.0, "peak-to-peak width", _non_negative),
        ParamSpec("seed", 0, "noise stream seed"),
    )

    def _draw(self, n: int) -> np.ndarray:
        w = float(self.get_param("width"))
        return self._rng.uniform(-w / 2.0, w / 2.0, n)


@register_unit(category="signal")
class FFT(Unit):
    """Real FFT: SampleSet → one-sided ComplexSpectrum."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (ComplexSpectrum,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        if len(sig.data) == 0:
            raise UnitError("FFT: empty input")
        spec = np.fft.rfft(sig.data)
        df = sig.sampling_rate / len(sig.data)
        return [ComplexSpectrum(data=spec, df=df)]

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
        data = np.fft.irfft(spec.data, n=n_time)
        fs = spec.df * n_time
        return [SampleSet(data=data, sampling_rate=fs)]

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
class AmplitudeSpectrum(Unit):
    """|X(f)| / N."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ComplexSpectrum,)
    OUTPUT_TYPES = (Spectrum,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (spec,) = inputs
        n_time = 2 * (len(spec.data) - 1)
        return [Spectrum(data=np.abs(spec.data) / max(n_time, 1), df=spec.df)]


@register_unit(category="signal")
class AccumStat(Unit):
    """Running mean of successive spectra (Fig. 1's noise remover).

    "uses a unit called AccumStat to average the spectra over successive
    iterations to remove the noise from the original signal."  State is
    checkpointable so a migrating peer keeps its accumulated average.
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (Spectrum,)
    OUTPUT_TYPES = (Spectrum,)

    def reset(self) -> None:
        self._count = 0
        self._sum: np.ndarray | None = None
        self._df = 1.0

    def checkpoint(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "sum": None if self._sum is None else self._sum.tolist(),
            "df": self._df,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._count = int(state.get("count", 0))
        raw = state.get("sum")
        self._sum = None if raw is None else np.asarray(raw, dtype=float)
        self._df = float(state.get("df", 1.0))

    @property
    def count(self) -> int:
        """Number of spectra accumulated so far."""
        return self._count

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
    PARAMETERS = (ParamSpec("factor", 1.0, "gain factor"),)

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
class Offset(Unit):
    """Add a DC offset to a sample set."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (ParamSpec("offset", 0.0, "additive offset"),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        return [
            SampleSet(
                data=sig.data + float(self.get_param("offset")),
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


@register_unit(category="signal")
class WindowFn(Unit):
    """Apply a taper window (hann/hamming/blackman/rect)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (ParamSpec("window", "hann", "hann | hamming | blackman | rect"),)

    _WINDOWS = {
        "hann": np.hanning,
        "hamming": np.hamming,
        "blackman": np.blackman,
        "rect": np.ones,
    }

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        kind = self.get_param("window")
        if kind not in self._WINDOWS:
            raise UnitError(f"WindowFn: unknown window {kind!r}")
        w = self._WINDOWS[kind](len(sig.data))
        return [SampleSet(data=sig.data * w, sampling_rate=sig.sampling_rate, t0=sig.t0)]


class _FFTFilter(Unit):
    """Zero out FFT bins outside the pass region.

    The stop band depends only on the frame length, the sampling rate and
    the cutoff, so it is kept and rebuilt when any of them changes.
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)

    #: the kept stop-band mask and the key it was built for
    _stop: np.ndarray | None = None
    _stop_key: tuple | None = None

    def _mask(self, freqs: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        n = len(sig.data)
        rate = sig.sampling_rate
        # The rate's type is in the key: an equal float32 rate gives other bins.
        key = (n, rate, type(rate), self.get_param("cutoff"))
        if key != self._stop_key:
            freqs = np.fft.rfftfreq(n, d=1.0 / rate)
            self._stop, self._stop_key = ~self._mask(freqs), key
        spec = np.fft.rfft(sig.data)
        spec[self._stop] = 0.0
        data = np.fft.irfft(spec, n=n)
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


@register_unit(category="signal")
class Decimate(Unit):
    """Keep every k-th sample (no anti-alias filter — compose with LowPass)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (ParamSpec("factor", 2, "decimation factor", _positive_int),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        k = int(self.get_param("factor"))
        return [
            SampleSet(
                data=sig.data[::k],
                sampling_rate=sig.sampling_rate / k,
                t0=sig.t0,
            )
        ]


@register_unit(category="signal")
class Correlate(Unit):
    """FFT-based cross-correlation of two sample sets (node1 is template)."""

    NUM_INPUTS = 2
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        data, template = inputs
        n = len(data.data) + len(template.data) - 1
        nfft = 1 << int(np.ceil(np.log2(max(n, 2))))
        fd = np.fft.rfft(data.data, nfft)
        ft = np.fft.rfft(template.data, nfft)
        corr = np.fft.irfft(fd * np.conj(ft), nfft)[:n]
        return [SampleSet(data=corr, sampling_rate=data.sampling_rate, t0=data.t0)]

    def estimated_flops(self, input_nbytes: int) -> float:
        n = max(input_nbytes / 8.0, 2.0)
        return 15.0 * n * np.log2(n)


@register_unit(category="signal")
class Spectrogram(Unit):
    """Short-time Fourier transform: SampleSet → TimeFrequency map.

    Rows are time frames (hop-spaced), columns frequency bins; values are
    power.  The natural display for chirping signals like Case 2's
    inspirals.
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (TimeFrequency,)
    PARAMETERS = (
        ParamSpec("window", 128, "FFT window length in samples", _positive),
        ParamSpec("hop", 64, "hop between frames in samples", _positive),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        window = int(self.get_param("window"))
        hop = int(self.get_param("hop"))
        if len(sig.data) < window:
            raise UnitError(
                f"Spectrogram: signal shorter than window ({len(sig.data)} < {window})"
            )
        taper = np.hanning(window)
        frames = []
        for start in range(0, len(sig.data) - window + 1, hop):
            chunk = sig.data[start : start + window] * taper
            frames.append(np.abs(np.fft.rfft(chunk)) ** 2)
        return [
            TimeFrequency(
                data=np.array(frames),
                dt=hop / sig.sampling_rate,
                df=sig.sampling_rate / window,
            )
        ]

    def estimated_flops(self, input_nbytes: int) -> float:
        n = max(input_nbytes / 8.0, 2.0)
        return 10.0 * n * np.log2(max(n, 2.0))


@register_unit(category="signal")
class SpectrumToGraph(Unit):
    """Spectrum → GraphData (frequency axis attached)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (Spectrum,)
    OUTPUT_TYPES = (GraphData,)
    PARAMETERS = (ParamSpec("label", "", "series label"),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (spec,) = inputs
        return [
            GraphData(x=spec.frequencies(), y=spec.data, label=self.get_param("label"))
        ]


@register_unit(category="signal")
class SampleSetToGraph(Unit):
    """SampleSet → GraphData (time axis attached)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (GraphData,)
    PARAMETERS = (ParamSpec("label", "", "series label"),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (sig,) = inputs
        return [GraphData(x=sig.times(), y=sig.data, label=self.get_param("label"))]
