"""Tests for the extended toolbox: the vectorpack family."""

import numpy as np
import pytest

from repro.core import ComplexSpectrum, SampleSet, UnitError, VectorType
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
