"""Tests for the Triana type system."""

import numpy as np
import pytest

from repro.core import (
    AnyType,
    ComplexSpectrum,
    GraphData,
    ImageData,
    ParticleSnapshot,
    SampleSet,
    Spectrum,
    TableData,
    is_compatible,
)


class TestSampleSet:
    def test_basic_construction(self):
        s = SampleSet(data=np.arange(8.0), sampling_rate=4.0, t0=1.0)
        assert len(s.data) == 8

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
], ids=["SampleSet-sampling_rate", "Spectrum-df", "ComplexSpectrum-df"])
def test_rates_must_be_finite_and_positive(make, name, value):
    """``nan <= 0`` is False: a NaN rate used to make ``times()`` all NaN
    and an infinite one made it all ``t0``."""
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        make(value)


class TestImageData:
    def test_shape(self):
        img = ImageData(pixels=np.zeros((4, 6)))
        assert img.pixels.shape == (4, 6)

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

class TestParticleSnapshot:
    def test_valid(self):
        snap = ParticleSnapshot(
            positions=np.zeros((5, 3)), masses=np.ones(5), smoothing=np.ones(5)
        )
        assert len(snap.positions) == 5

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
