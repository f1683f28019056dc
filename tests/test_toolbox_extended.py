"""Tests for the extended toolbox: statistics, vector, conversion."""

import numpy as np
import pytest

from repro.core import (
    ComplexSpectrum,
    Const,
    ImageData,
    SampleSet,
    Spectrum,
    TableData,
    UnitError,
    VectorType,
)
from repro.core.toolbox.conversion import (
    ConstToVector,
    ImageFlatten,
    SampleSetToVector,
    SpectrumToVector,
    TableColumn,
    TableToText,
    VectorToSampleSet,
    VectorToTable,
)
from repro.core.toolbox.statistics import (
    RMS,
    AutoCorrelate,
    ExpSmoother,
    Kurtosis,
    Median,
    MovingAverage,
    PeakDetect,
    RunningStats,
    Skewness,
    Variance,
    ZeroCrossingRate,
    ZScore,
)
from repro.core.toolbox.vectorpack import (
    ComplexToPolar,
    Concatenate,
    DotProduct,
    Duplicate,
    Interleave,
    L2Distance,
    MinMax,
    Resample,
    Reverse,
    SplitHalf,
    TrimTo,
    ZeroPad,
)


def vec(*values):
    return VectorType(data=np.array(values, dtype=float))


def sig(data, fs=8.0, t0=0.0):
    return SampleSet(data=np.asarray(data, dtype=float), sampling_rate=fs, t0=t0)


class TestStatistics:
    def test_rms_variance_median(self):
        v = vec(3, 4)
        assert RMS().process([v])[0].value == pytest.approx(np.sqrt(12.5))
        assert Variance().process([v])[0].value == pytest.approx(0.25)
        assert Median().process([vec(1, 9, 5)])[0].value == 5.0

    def test_skew_kurtosis_gaussian_near_zero(self):
        rng = np.random.default_rng(1)
        v = VectorType(data=rng.normal(size=50_000))
        assert abs(Skewness().process([v])[0].value) < 0.05
        assert abs(Kurtosis().process([v])[0].value) < 0.1

    def test_skew_constant_input_zero(self):
        v = vec(2, 2, 2)
        assert Skewness().process([v])[0].value == 0.0
        assert Kurtosis().process([v])[0].value == 0.0

    def test_zscore(self):
        (out,) = ZScore().process([vec(1, 2, 3)])
        assert out.data.mean() == pytest.approx(0.0)
        assert out.data.std() == pytest.approx(1.0)

    def test_zscore_preserves_sampleset(self):
        (out,) = ZScore().process([sig([1, 2, 3], fs=16.0)])
        assert isinstance(out, SampleSet) and out.sampling_rate == 16.0

    def test_moving_average_smooths(self):
        s = sig(np.tile([0.0, 1.0], 32))
        (out,) = MovingAverage(window=2).process([s])
        assert out.data[5] == pytest.approx(0.5)

    def test_moving_average_window_check(self):
        with pytest.raises(UnitError):
            MovingAverage(window=100).process([sig([1, 2, 3])])

    def test_exp_smoother_converges(self):
        sm = ExpSmoother(alpha=0.5)
        values = [sm.process([Const(value=10.0)])[0].value for _ in range(12)]
        assert values[0] == 10.0
        assert values[-1] == pytest.approx(10.0)
        sm2 = ExpSmoother(alpha=0.5)
        sm2.process([Const(value=0.0)])
        assert sm2.process([Const(value=10.0)])[0].value == 5.0

    def test_exp_smoother_checkpoint(self):
        sm = ExpSmoother(alpha=0.3)
        sm.process([Const(value=4.0)])
        state = sm.checkpoint()
        sm2 = ExpSmoother(alpha=0.3)
        sm2.restore(state)
        a = sm.process([Const(value=8.0)])[0].value
        b = sm2.process([Const(value=8.0)])[0].value
        assert a == b

    def test_exp_smoother_bad_alpha(self):
        with pytest.raises(UnitError):
            ExpSmoother(alpha=0.0).process([Const(value=1.0)])

    def test_peak_detect(self):
        v = vec(0, 5, 0, 3, 0, 7, 0)
        (table,) = PeakDetect(threshold=4.0).process([v])
        assert table.column("index") == [1, 5]
        assert table.column("value") == [5.0, 7.0]

    def test_autocorrelate_periodic(self):
        t = np.arange(512) / 64.0
        s = SampleSet(data=np.sin(2 * np.pi * 8.0 * t), sampling_rate=64.0)
        (acf,) = AutoCorrelate().process([s])
        assert acf.data[0] == pytest.approx(1.0)
        assert acf.data[8] == pytest.approx(1.0, abs=0.1)  # lag = one period

    def test_autocorrelate_empty(self):
        with pytest.raises(UnitError):
            AutoCorrelate().process([SampleSet(data=np.zeros(0))])

    def test_zero_crossing_rate(self):
        s = vec(1, -1, 1, -1, 1)
        assert ZeroCrossingRate().process([s])[0].value == pytest.approx(1.0)

    def test_running_stats_window(self):
        rs = RunningStats(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            (table,) = rs.process([Const(value=v)])
        assert table.column("mean") == [pytest.approx(3.0)]
        assert table.column("n") == [3]
        state = rs.checkpoint()
        rs2 = RunningStats(window=3)
        rs2.restore(state)
        (t2,) = rs2.process([Const(value=5.0)])
        assert t2.column("mean") == [pytest.approx(4.0)]


class TestVectorPack:
    def test_concatenate(self):
        (out,) = Concatenate().process([sig([1, 2]), sig([3, 4])])
        np.testing.assert_array_equal(out.data, [1, 2, 3, 4])

    def test_concatenate_rate_mismatch(self):
        with pytest.raises(UnitError):
            Concatenate().process([sig([1], fs=2.0), sig([1], fs=4.0)])

    def test_split_half_timing(self):
        outs = SplitHalf().process([sig([1, 2, 3, 4], fs=2.0)])
        first, second = outs
        np.testing.assert_array_equal(first.data, [1, 2])
        np.testing.assert_array_equal(second.data, [3, 4])
        assert second.t0 == pytest.approx(1.0)

    def test_split_half_too_short(self):
        with pytest.raises(UnitError):
            SplitHalf().process([sig([1])])

    def test_split_then_concat_round_trip(self):
        s = sig(np.arange(10.0))
        a, b = SplitHalf().process([s])
        (back,) = Concatenate().process([a, b])
        np.testing.assert_array_equal(back.data, s.data)

    def test_duplicate(self):
        payload = vec(1.0)
        a, b = Duplicate().process([payload])
        assert a is payload and b is payload

    def test_reverse_twice_identity(self):
        s = sig(np.arange(8.0))
        (r,) = Reverse().process([s])
        (rr,) = Reverse().process([r])
        np.testing.assert_array_equal(rr.data, s.data)

    def test_zero_pad_and_trim(self):
        s = sig([1, 2, 3])
        (p,) = ZeroPad(length=6).process([s])
        assert len(p.data) == 6 and p.data[3:].sum() == 0
        (t,) = TrimTo(length=2).process([p])
        np.testing.assert_array_equal(t.data, [1, 2])

    def test_zero_pad_too_short(self):
        with pytest.raises(UnitError):
            ZeroPad(length=2).process([sig([1, 2, 3])])

    def test_trim_too_long(self):
        with pytest.raises(UnitError):
            TrimTo(length=10).process([sig([1, 2])])

    def test_resample_preserves_duration(self):
        t = np.arange(128) / 64.0
        s = SampleSet(data=np.sin(2 * np.pi * 4 * t), sampling_rate=64.0)
        (r,) = Resample(rate=128.0).process([s])
        assert len(r.data) == 256
        assert r.duration == pytest.approx(s.duration)

    def test_dot_and_distance(self):
        assert DotProduct().process([vec(1, 2), vec(3, 4)])[0].value == 11.0
        assert L2Distance().process([vec(0, 0), vec(3, 4)])[0].value == 5.0
        with pytest.raises(UnitError):
            DotProduct().process([vec(1), vec(1, 2)])

    def test_min_max_two_outputs(self):
        lo, hi = MinMax().process([vec(4, -2, 9)])
        assert lo.value == -2.0 and hi.value == 9.0

    def test_complex_to_polar(self):
        spec = ComplexSpectrum(data=np.array([1 + 1j, -2 + 0j]), df=1.0)
        mag, phase = ComplexToPolar().process([spec])
        np.testing.assert_allclose(mag.data, [np.sqrt(2), 2.0])
        np.testing.assert_allclose(phase.data, [np.pi / 4, np.pi])

    def test_interleave(self):
        (out,) = Interleave().process([sig([1, 3], fs=2.0), sig([2, 4], fs=2.0)])
        np.testing.assert_array_equal(out.data, [1, 2, 3, 4])
        assert out.sampling_rate == 4.0


class TestConversion:
    def test_vector_sampleset_round_trip(self):
        v = vec(1, 2, 3)
        (s,) = VectorToSampleSet(sampling_rate=100.0).process([v])
        assert s.sampling_rate == 100.0
        (back,) = SampleSetToVector().process([s])
        np.testing.assert_array_equal(back.data, v.data)

    def test_spectrum_to_vector(self):
        (v,) = SpectrumToVector().process([Spectrum(data=np.arange(4.0))])
        np.testing.assert_array_equal(v.data, [0, 1, 2, 3])

    def test_table_column(self):
        t = TableData(["a", "b"], [(1, "x"), (2, "y")])
        (v,) = TableColumn(column="a").process([t])
        np.testing.assert_array_equal(v.data, [1.0, 2.0])
        with pytest.raises(UnitError):
            TableColumn(column="b").process([t])  # non-numeric
        with pytest.raises(UnitError):
            TableColumn(column="zz").process([t])

    def test_vector_to_table(self):
        (t,) = VectorToTable(column="x").process([vec(5, 6)])
        assert t.columns == ["x"]
        assert t.column("x") == [5.0, 6.0]

    def test_image_flatten(self):
        img = ImageData(pixels=np.array([[1.0, 2.0], [3.0, 4.0]]))
        (v,) = ImageFlatten().process([img])
        np.testing.assert_array_equal(v.data, [1, 2, 3, 4])

    def test_const_to_vector(self):
        (v,) = ConstToVector(length=3).process([Const(value=7.0)])
        np.testing.assert_array_equal(v.data, [7, 7, 7])

    def test_table_to_text_csv_round_trip(self):
        from repro.apps.database import Database

        t = TableData(["name", "mass"], [("m31", 12.1), ("lmc", 9.5)])
        (text,) = TableToText().process([t])
        db = Database()
        db.load_csv("galaxies", text.text)
        assert db.table("galaxies").column("mass") == [12.1, 9.5]
