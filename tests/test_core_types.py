"""Tests for the Triana type system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnyType,
    ComplexSpectrum,
    Const,
    GraphData,
    ImageData,
    ParticleSnapshot,
    SampleSet,
    Spectrum,
    TableData,
    TimeFrequency,
    VectorType,
    is_compatible,
    type_by_name,
)


class TestSampleSet:
    def test_basic_construction(self):
        s = SampleSet(data=np.arange(8.0), sampling_rate=4.0, t0=1.0)
        assert len(s) == 8
        assert s.duration == 2.0

    def test_times_axis(self):
        s = SampleSet(data=np.zeros(4), sampling_rate=2.0, t0=10.0)
        np.testing.assert_allclose(s.times(), [10.0, 10.5, 11.0, 11.5])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            SampleSet(data=np.zeros((2, 2)))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampleSet(data=np.zeros(4), sampling_rate=0.0)

    def test_payload_nbytes_scales_with_data(self):
        small = SampleSet(data=np.zeros(10))
        big = SampleSet(data=np.zeros(1000))
        assert big.payload_nbytes() > small.payload_nbytes()


class TestSpectra:
    def test_complex_spectrum_frequencies(self):
        cs = ComplexSpectrum(data=np.zeros(5, dtype=complex), df=2.0)
        np.testing.assert_allclose(cs.frequencies(), [0, 2, 4, 6, 8])

    def test_spectrum_rejects_bad_df(self):
        with pytest.raises(ValueError):
            Spectrum(data=np.zeros(4), df=-1.0)

    def test_spectrum_len(self):
        assert len(Spectrum(data=np.zeros(7))) == 7


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("make,name", [
    (lambda v: SampleSet(data=np.zeros(4), sampling_rate=v), "sampling_rate"),
    (lambda v: Spectrum(data=np.zeros(4), df=v), "df"),
    (lambda v: ComplexSpectrum(data=np.zeros(4), df=v), "df"),
    (lambda v: TimeFrequency(data=np.zeros((2, 2)), dt=v), "dt"),
    (lambda v: TimeFrequency(data=np.zeros((2, 2)), df=v), "df"),
], ids=["SampleSet-sampling_rate", "Spectrum-df", "ComplexSpectrum-df",
        "TimeFrequency-dt", "TimeFrequency-df"])
def test_rates_must_be_finite_and_positive(make, name, value):
    """``nan <= 0`` is False: a NaN rate used to make ``times()`` all NaN
    and an infinite one made it all ``t0``."""
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        make(value)


class TestVectorAndConst:
    def test_vector_rejects_2d(self):
        with pytest.raises(ValueError):
            VectorType(data=np.zeros((3, 3)))

    def test_const_coerces_to_float(self):
        assert Const(value=3).value == 3.0
        assert isinstance(Const(value=3).value, float)


class TestImageData:
    def test_shape(self):
        img = ImageData(pixels=np.zeros((4, 6)))
        assert img.shape == (4, 6)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ImageData(pixels=np.zeros(5))


class TestGraphData:
    def test_xy_shape_must_match(self):
        with pytest.raises(ValueError):
            GraphData(x=np.zeros(3), y=np.zeros(4))


class TestTableData:
    def test_construction_and_column(self):
        t = TableData(["a", "b"], [(1, "x"), (2, "y")])
        assert len(t) == 2
        assert t.column("a") == [1, 2]
        assert t.column("b") == ["x", "y"]

    def test_row_width_checked(self):
        t = TableData(["a", "b"])
        with pytest.raises(ValueError):
            t.append((1,))

    def test_missing_column(self):
        t = TableData(["a"])
        with pytest.raises(KeyError):
            t.column("zzz")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableData(["a", "a"])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            TableData([])

    def test_equality(self):
        t1 = TableData(["a"], [(1,)])
        t2 = TableData(["a"], [(1,)])
        t3 = TableData(["a"], [(2,)])
        assert t1 == t2
        assert t1 != t3


class TestParticleSnapshot:
    def test_valid(self):
        snap = ParticleSnapshot(
            positions=np.zeros((5, 3)), masses=np.ones(5), smoothing=np.ones(5)
        )
        assert len(snap) == 5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSnapshot(positions=np.zeros((5, 2)), masses=np.ones(5), smoothing=np.ones(5))
        with pytest.raises(ValueError):
            ParticleSnapshot(positions=np.zeros((5, 3)), masses=np.ones(4), smoothing=np.ones(5))


class TestCompatibility:
    def test_exact_match(self):
        assert is_compatible([SampleSet], [SampleSet])

    def test_mismatch(self):
        assert not is_compatible([SampleSet], [Spectrum])

    def test_any_accepts_everything(self):
        assert is_compatible([SampleSet], [AnyType])
        assert is_compatible([AnyType], [Spectrum])

    def test_alternatives(self):
        assert is_compatible([SampleSet, Spectrum], [Spectrum])

    def test_empty_means_any(self):
        assert is_compatible([], [SampleSet])
        assert is_compatible([TableData], [])


class TestTypeByName:
    def test_simple_name(self):
        assert type_by_name("SampleSet") is SampleSet

    def test_java_style_dotted_name(self):
        # Code Segment 1 uses "triana.types.SampleSet".
        assert type_by_name("triana.types.SampleSet") is SampleSet

    def test_unknown(self):
        with pytest.raises(KeyError):
            type_by_name("NoSuchType")


@given(st.integers(min_value=1, max_value=512), st.floats(min_value=0.1, max_value=1e5))
@settings(max_examples=30)
def test_sampleset_duration_property(n, fs):
    s = SampleSet(data=np.zeros(n), sampling_rate=fs)
    assert s.duration == pytest.approx(n / fs)
    assert len(s.times()) == n
