"""Tests for the signal-processing toolbox."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import fig1_graph, pipeline_graph
from repro.core import (
    ComplexSpectrum,
    LocalEngine,
    ParameterError,
    SampleSet,
    Spectrum,
    TaskGraph,
    UnitError,
)
from repro.core.toolbox.signal import (
    FFT,
    AccumStat,
    Gain,
    GaussianNoise,
    HighPass,
    InverseFFT,
    LowPass,
    Mixer,
    PowerSpectrum,
    Wave,
)


def sine(freq=64.0, n=256, fs=1024.0):
    t = np.arange(n) / fs
    return SampleSet(data=np.sin(2 * np.pi * freq * t), sampling_rate=fs)


class TestWave:
    def test_sine_frequency(self):
        w = Wave(frequency=64.0, samples=1024, sampling_rate=1024.0)
        (out,) = w.process([])
        spec = np.abs(np.fft.rfft(out.data))
        assert spec.argmax() == 64

    def test_phase_continuity_across_frames(self):
        w = Wave(frequency=10.0, samples=100, sampling_rate=1000.0)
        (f1,) = w.process([])
        (f2,) = w.process([])
        glued = np.concatenate([f1.data, f2.data])
        expected = np.sin(2 * np.pi * 10.0 * np.arange(200) / 1000.0)
        np.testing.assert_allclose(glued, expected, atol=1e-12)

    def test_t0_advances(self):
        w = Wave(samples=128, sampling_rate=256.0)
        (f1,) = w.process([])
        (f2,) = w.process([])
        assert f1.t0 == 0.0
        assert f2.t0 == pytest.approx(0.5)

    def test_square_and_sawtooth(self):
        for kind in ("square", "sawtooth"):
            w = Wave(waveform=kind, samples=64)
            (out,) = w.process([])
            assert np.abs(out.data).max() <= 1.0 + 1e-12

    def test_unknown_waveform(self):
        with pytest.raises(ParameterError, match="'waveform': must be one of"):
            Wave(waveform="triangle-ish")

    def test_bad_frequency_rejected(self):
        from repro.core import ParameterError

        with pytest.raises(ParameterError):
            Wave(frequency=-3.0)

    @pytest.mark.parametrize("samples", [0.5, 10.9, 2.0, True, np.inf, 0])
    def test_samples_must_be_a_positive_integer(self, samples):
        """0.5 used to emit an empty frame and 10.9 a 10-sample one."""
        msg = "'samples': must be a finite positive integer"
        with pytest.raises(ParameterError, match=msg):
            Wave(samples=samples)


class TestNoise:
    def test_gaussian_noise_statistics(self):
        g = GaussianNoise(sigma=2.0, seed=1)
        sig = SampleSet(data=np.zeros(50_000), sampling_rate=1.0)
        (out,) = g.process([sig])
        assert out.data.std() == pytest.approx(2.0, rel=0.05)
        assert abs(out.data.mean()) < 0.05

    def test_noise_reproducible_by_seed(self):
        a = GaussianNoise(sigma=1.0, seed=42).process([sine()])[0]
        b = GaussianNoise(sigma=1.0, seed=42).process([sine()])[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = GaussianNoise(sigma=1.0, seed=1).process([sine()])[0]
        b = GaussianNoise(sigma=1.0, seed=2).process([sine()])[0]
        assert not np.array_equal(a.data, b.data)

    def test_sigma_zero_passthrough(self):
        g = GaussianNoise(sigma=0.0, seed=0)
        sig = sine()
        (out,) = g.process([sig])
        np.testing.assert_array_equal(out.data, sig.data)


@pytest.mark.parametrize("unit_cls,param,value", [
    (Wave, "frequency", np.inf),
    (Wave, "frequency", np.nan),
    (Wave, "sampling_rate", np.inf),
    (GaussianNoise, "sigma", np.nan),
    (GaussianNoise, "sigma", np.inf),
    (LowPass, "cutoff", np.inf),
    (HighPass, "cutoff", np.inf),
    (HighPass, "cutoff", np.nan),
    (Gain, "factor", np.inf),
    (Gain, "factor", np.nan),
    (Wave, "amplitude", np.nan),
    (Wave, "amplitude", np.inf),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_non_finite_parameter_rejected_by_name(unit_cls, param, value):
    # A NaN or infinite frequency, sigma, cutoff, gain or amplitude can
    # only make a NaN or infinite frame; the unit refuses it before it
    # runs.
    with pytest.raises(ParameterError, match=f"parameter '{param}': must be finite"):
        unit_cls(**{param: value})


class TestFFTChain:
    def test_fft_inverse_round_trip(self):
        sig = sine()
        (spec,) = FFT().process([sig])
        (back,) = InverseFFT().process([spec])
        np.testing.assert_allclose(back.data, sig.data, atol=1e-10)
        assert back.sampling_rate == pytest.approx(sig.sampling_rate)

    def test_fft_df(self):
        sig = sine(n=512, fs=1024.0)
        (spec,) = FFT().process([sig])
        assert spec.df == pytest.approx(2.0)
        assert len(spec.data) == 257

    def test_fft_rejects_empty(self):
        with pytest.raises(UnitError):
            FFT().process([SampleSet(data=np.zeros(0))])

    @pytest.mark.parametrize("bins", [0, 1])
    def test_inverse_fft_rejects_a_spectrum_with_no_samples(self, bins):
        """One bin means ``n_time = 0``: numpy's bare ``ValueError``
        ("Invalid number of FFT data points") used to leak out."""
        with pytest.raises(UnitError, match="at least 2 bins"):
            InverseFFT().process([ComplexSpectrum(data=np.ones(bins))])

    @pytest.mark.parametrize("unit_cls", [LowPass, HighPass])
    def test_filters_reject_empty(self, unit_cls):
        """An empty frame used to raise a bare ``ZeroDivisionError``."""
        with pytest.raises(UnitError, match="empty input"):
            unit_cls().process([SampleSet(data=np.zeros(0))])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 64, 65, 256, 16384])
    def test_transforms_are_np_fft_bit_for_bit(self, n):
        data = np.random.default_rng(n).normal(size=n)
        (spec,) = FFT().process([SampleSet(data=data, sampling_rate=100.0)])
        assert spec.data.tobytes() == np.fft.rfft(data).tobytes()
        # a strided frame transforms the same
        (spec,) = FFT().process([SampleSet(data=np.repeat(data, 2)[::2])])
        assert spec.data.tobytes() == np.fft.rfft(data).tobytes()
        if len(spec.data) > 1:
            (back,) = InverseFFT().process([spec])
            n_time = 2 * (len(spec.data) - 1)
            assert back.data.tobytes() == np.fft.irfft(spec.data, n=n_time).tobytes()

    def test_power_spectrum_peak_location(self):
        (spec,) = FFT().process([sine(freq=64.0, n=1024, fs=1024.0)])
        (power,) = PowerSpectrum().process([spec])
        assert power.frequencies()[power.data.argmax()] == pytest.approx(64.0)

    def test_fft_cost_model_superlinear(self):
        fft = FFT()
        assert fft.estimated_flops(2**20) > 100 * fft.estimated_flops(2**10)


class TestAccumStat:
    def test_running_mean(self):
        acc = AccumStat()
        s1 = Spectrum(data=np.array([1.0, 2.0]), df=1.0)
        s2 = Spectrum(data=np.array([3.0, 4.0]), df=1.0)
        (m1,) = acc.process([s1])
        (m2,) = acc.process([s2])
        np.testing.assert_allclose(m1.data, [1.0, 2.0])
        np.testing.assert_allclose(m2.data, [2.0, 3.0])
        assert acc._count == 2

    def test_shape_change_rejected(self):
        acc = AccumStat()
        acc.process([Spectrum(data=np.zeros(4))])
        with pytest.raises(UnitError):
            acc.process([Spectrum(data=np.zeros(8))])

    def test_reset_clears(self):
        acc = AccumStat()
        acc.process([Spectrum(data=np.ones(4))])
        acc.reset()
        assert acc._count == 0

    def test_noise_floor_shrinks_with_iterations(self):
        """The Fig. 2 effect: averaging pulls the 64 Hz peak out of noise."""
        wave = Wave(frequency=64.0, amplitude=0.2, samples=1024, sampling_rate=1024.0)
        noise = GaussianNoise(sigma=2.0, seed=3)
        fft, power, acc = FFT(), PowerSpectrum(), AccumStat()

        def snr_after(n_iters):
            for unit in (wave, noise, fft, power, acc):
                unit.reset()
            for _ in range(n_iters):
                (s,) = wave.process([])
                (noisy,) = noise.process([s])
                (spec,) = fft.process([noisy])
                (p,) = power.process([spec])
                (avg,) = acc.process([p])
            signal_bin = 64
            mask = np.ones(len(avg.data), bool)
            mask[signal_bin - 2 : signal_bin + 3] = False
            mask[:3] = False
            return avg.data[signal_bin] / avg.data[mask].std()

        assert snr_after(20) > 2.0 * snr_after(1)


class TestFiltersAndTransforms:
    def test_gain_and_offset(self):
        sig = sine()
        (g,) = Gain(factor=3.0).process([sig])
        np.testing.assert_allclose(g.data, 3.0 * sig.data)

    def test_mixer_adds(self):
        a, b = sine(freq=10.0), sine(freq=20.0)
        (m,) = Mixer().process([a, b])
        np.testing.assert_allclose(m.data, a.data + b.data)

    def test_mixer_rate_mismatch(self):
        a = sine(fs=1024.0)
        b = sine(fs=512.0)
        with pytest.raises(UnitError):
            Mixer().process([a, b])

    def test_lowpass_kills_high_tone(self):
        low, high = sine(freq=10.0, n=1024), sine(freq=200.0, n=1024)
        (mixed,) = Mixer().process([low, high])
        (filtered,) = LowPass(cutoff=50.0).process([mixed])
        np.testing.assert_allclose(filtered.data, low.data, atol=0.01)

    def test_highpass_kills_low_tone(self):
        low, high = sine(freq=10.0, n=1024), sine(freq=200.0, n=1024)
        (mixed,) = Mixer().process([low, high])
        (filtered,) = HighPass(cutoff=50.0).process([mixed])
        np.testing.assert_allclose(filtered.data, high.data, atol=0.01)


def round_trips(n, fs):
    rng = np.random.default_rng(n)
    sig = SampleSet(data=rng.normal(size=n), sampling_rate=fs)
    (spec,) = FFT().process([sig])
    (back,) = InverseFFT().process([spec])
    np.testing.assert_allclose(back.data, sig.data, atol=1e-9)
    assert back.sampling_rate == pytest.approx(fs)


@given(
    st.integers(min_value=8, max_value=512).map(lambda k: 2 * k),
    st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=20, deadline=None)
def test_fft_round_trip_property(n, fs):
    round_trips(n, fs)


@pytest.mark.xfail(
    strict=True,
    reason="a ComplexSpectrum carries no frame length: an odd frame of n samples "
    "comes back as n - 1 samples at fs * (n - 1) / n (63 at 100 Hz -> 62 at "
    "98.41 Hz), and PowerSpectrum normalises it by (n - 1) ** 2",
)
def test_fft_round_trip_of_an_odd_frame():
    round_trips(63, 100.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=32))
@settings(max_examples=30)
def test_accumstat_mean_property(values):
    """AccumStat's output equals the true running mean of its inputs."""
    acc = AccumStat()
    seen = []
    for v in values:
        seen.append(v)
        (m,) = acc.process([Spectrum(data=np.array([v]))])
        np.testing.assert_allclose(m.data[0], np.mean(seen), rtol=1e-9, atol=1e-9)


# -- the FFT filters keep their stop band -----------------------------------------------


def filtered_per_call(unit, sig):
    """The filter as it computed before it kept its mask: frequencies and
    stop band rebuilt on every call.  Kept as the reference."""
    spec = np.fft.rfft(sig.data)
    freqs = np.fft.rfftfreq(len(sig.data), d=1.0 / sig.sampling_rate)
    spec[~unit._mask(freqs)] = 0.0
    return np.fft.irfft(spec, n=len(sig.data))


@given(
    st.sampled_from([LowPass, HighPass]),
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 7, 8, 63, 64, 65, 256]),
            st.sampled_from([64.0, 100.0, np.float32(100.0), 1000.1, 44100]),
            st.sampled_from([100.0 / 63, 5.0, 100, 100.0, 400.0, 1e4]),
        ),
        min_size=1, max_size=12,
    ),
)
# An equal float32 rate puts bin 1 of 63 samples on the other side of the cutoff.
@example(LowPass, [(63, 100.0, 100.0 / 63), (63, np.float32(100.0), 100.0 / 63)])
@settings(max_examples=60, deadline=None)
def test_kept_stop_band_is_the_per_call_mask_bit_for_bit(filter_cls, frames):
    unit = filter_cls()
    rng = np.random.default_rng(len(frames))
    for n, rate, cutoff in frames:
        unit.set_param("cutoff", cutoff)
        sig = SampleSet(data=rng.normal(size=n), sampling_rate=rate)
        (out,) = unit.process([sig])
        assert out.data.tobytes() == filtered_per_call(unit, sig).tobytes()
        assert (out.sampling_rate, out.t0) == (sig.sampling_rate, sig.t0)


def test_a_new_cutoff_between_steps_filters_as_a_fresh_unit():
    """The filter keeps its stop band between frames; a new cutoff set on
    the live unit between engine steps must not leave the old band in place."""
    iterations, old, new, switch = 12, 100.0, 20.0, 5
    g = TaskGraph("lowpass")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("Filter", "LowPass", cutoff=old)
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "Filter", 0)
    g.connect("Filter", 0, "Grapher", 0)
    engine = LocalEngine(g)
    frames, filtered = engine.attach_probe("Wave"), engine.attach_probe("Filter")
    for it in range(iterations):
        if it == switch:
            engine.units["Filter"].set_param("cutoff", new)
        engine.step()
    for it, (frame, out) in enumerate(zip(frames.values, filtered.values)):
        by_cutoff = {
            c: LowPass(cutoff=c).process([frame])[0].data.tobytes() for c in (old, new)
        }
        assert by_cutoff[old] != by_cutoff[new]
        assert out.data.tobytes() == by_cutoff[old if it < switch else new]


# -- the FFT units never go through np.fft's wrapper ------------------------------------


@pytest.mark.parametrize(
    "graph", [pipeline_graph(8, samples=64), fig1_graph()], ids=["pipeline", "fig1"]
)
def test_graphs_run_without_the_np_fft_wrapper(monkeypatch, graph):
    """The units call pocketfft's gufuncs directly: a frame of the Fig. 4
    pipeline (64 samples through eight filters) and of Fig. 1 never pays
    for ``np.fft.rfft`` / ``irfft``."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.fft wrapper called")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    (payloads,) = LocalEngine(graph).run(iterations=2).values()
    assert len(payloads) == 1 and len(payloads[0].data) > 0
