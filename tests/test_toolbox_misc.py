"""Tests for the math, image and display toolbox families."""

import numpy as np
import pytest

from repro.core import Const, ImageData, ParameterError, SampleSet, UnitError, VectorType
from repro.core.toolbox.display import Grapher, ScopeProbe
from repro.core.toolbox.imagepack import (
    BoxBlur,
    DownsampleImage,
    ImageStats,
    InvertImage,
    RowProfile,
    SobelEdges,
    TestImage,
    ThresholdImage,
)
from repro.core.toolbox.mathpack import (
    AbsValue,
    Adder,
    Clamp,
    ConstSource,
    Differentiate,
    Divide,
    Histogram,
    Integrate,
    IterationCounter,
    LogN,
    MaxValue,
    MeanValue,
    MinValue,
    Multiply,
    Negate,
    Normalise,
    PowerOf,
    Ramp,
    RandomVector,
    RunningSum,
    Sqrt,
    StdDev,
    Subtract,
    Threshold,
)


def vec(*values):
    return VectorType(data=np.array(values, dtype=float))


class TestMathSources:
    def test_const_source(self):
        (c,) = ConstSource(value=2.5).process([])
        assert c.value == 2.5

    def test_ramp_counts(self):
        r = Ramp(step=2.0)
        outs = [r.process([])[0].value for _ in range(3)]
        assert outs == [0.0, 2.0, 4.0]

    def test_ramp_checkpoint(self):
        r = Ramp()
        r.process([])
        state = r.checkpoint()
        r2 = Ramp()
        r2.restore(state)
        assert r2.process([])[0].value == 1.0

    def test_random_vector_reproducible(self):
        a = RandomVector(length=8, seed=5).process([])[0]
        b = RandomVector(length=8, seed=5).process([])[0]
        np.testing.assert_array_equal(a.data, b.data)


class TestArithmetic:
    def test_adder_vectors(self):
        (out,) = Adder().process([vec(1, 2), vec(3, 4)])
        np.testing.assert_allclose(out.data, [4, 6])

    def test_adder_scalar_broadcast(self):
        (out,) = Adder().process([vec(1, 2), Const(value=10)])
        np.testing.assert_allclose(out.data, [11, 12])

    def test_subtract_multiply(self):
        np.testing.assert_allclose(
            Subtract().process([vec(5, 7), vec(1, 2)])[0].data, [4, 5]
        )
        np.testing.assert_allclose(
            Multiply().process([vec(2, 3), vec(4, 5)])[0].data, [8, 15]
        )

    def test_divide_by_zero(self):
        with pytest.raises(UnitError):
            Divide().process([vec(1.0), Const(value=0.0)])

    def test_sampleset_container_preserved(self):
        sig = SampleSet(data=np.arange(4.0), sampling_rate=8.0, t0=2.0)
        (out,) = Adder().process([sig, Const(value=1.0)])
        assert isinstance(out, SampleSet)
        assert out.sampling_rate == 8.0 and out.t0 == 2.0

    def test_const_plus_const(self):
        (out,) = Adder().process([Const(value=1.0), Const(value=2.0)])
        assert isinstance(out, Const) and out.value == 3.0

    def test_non_numeric_rejected(self):
        with pytest.raises(UnitError):
            Adder().process([ImageData(pixels=np.zeros((2, 2))), Const(value=1.0)])


class TestUnary:
    def test_negate_abs(self):
        np.testing.assert_allclose(Negate().process([vec(1, -2)])[0].data, [-1, 2])
        np.testing.assert_allclose(AbsValue().process([vec(-3, 4)])[0].data, [3, 4])

    def test_log_sqrt_domain_checks(self):
        with pytest.raises(UnitError):
            LogN().process([vec(0.0)])
        with pytest.raises(UnitError):
            Sqrt().process([vec(-1.0)])
        np.testing.assert_allclose(Sqrt().process([vec(4.0, 9.0)])[0].data, [2, 3])

    def test_power(self):
        np.testing.assert_allclose(
            PowerOf(exponent=3.0).process([vec(2.0)])[0].data, [8.0]
        )


class TestReductions:
    def test_all_reductions(self):
        v = vec(1, 2, 3, 4)
        assert MeanValue().process([v])[0].value == 2.5
        assert MaxValue().process([v])[0].value == 4.0
        assert MinValue().process([v])[0].value == 1.0
        assert StdDev().process([v])[0].value == pytest.approx(np.std([1, 2, 3, 4]))

    def test_empty_rejected(self):
        with pytest.raises(UnitError):
            MeanValue().process([VectorType(data=np.zeros(0))])


class TestStatefulMath:
    def test_running_sum(self):
        rs = RunningSum()
        rs.process([Const(value=2.0)])
        (out,) = rs.process([Const(value=3.0)])
        assert out.value == 5.0
        state = rs.checkpoint()
        rs2 = RunningSum()
        rs2.restore(state)
        assert rs2.process([Const(value=1.0)])[0].value == 6.0

    def test_iteration_counter_passthrough(self):
        ic = IterationCounter()
        payload = vec(1.0)
        (out,) = ic.process([payload])
        assert out is payload
        ic.process([payload])
        assert ic.count == 2


class TestShaping:
    def test_threshold(self):
        (out,) = Threshold(level=2.0).process([vec(1, 2, 3)])
        np.testing.assert_allclose(out.data, [0, 2, 3])

    def test_clamp(self):
        (out,) = Clamp(lo=0.0, hi=1.0).process([vec(-1, 0.5, 2)])
        np.testing.assert_allclose(out.data, [0, 0.5, 1])

    def test_clamp_bad_bounds(self):
        with pytest.raises(UnitError):
            Clamp(lo=2.0, hi=1.0).process([vec(0.0)])

    def test_normalise(self):
        (out,) = Normalise().process([vec(0, -4, 2)])
        assert np.abs(out.data).max() == pytest.approx(1.0)

    def test_normalise_zero_vector(self):
        (out,) = Normalise().process([vec(0, 0)])
        np.testing.assert_array_equal(out.data, [0, 0])

    def test_differentiate_integrate_inverse(self):
        sig = SampleSet(data=np.cumsum(np.ones(16)), sampling_rate=4.0)
        (d,) = Differentiate().process([sig])
        np.testing.assert_allclose(d.data[1:], 4.0)
        (i,) = Integrate().process([d])
        np.testing.assert_allclose(np.diff(i.data), np.diff(sig.data), atol=1e-9)

    def test_histogram(self):
        (g,) = Histogram(bins=4).process([vec(*np.arange(16.0))])
        assert g.y.sum() == 16
        assert len(g.x) == 4


class TestImages:
    def test_test_image_patterns(self):
        for pattern in ("blob", "gradient", "checker"):
            (img,) = TestImage(size=16, pattern=pattern).process([])
            assert img.shape == (16, 16)

    @pytest.mark.parametrize("value", [0.5, 2.7, 2.0, True, np.inf])
    @pytest.mark.parametrize("unit_cls,param", [
        (TestImage, "size"), (BoxBlur, "radius"), (DownsampleImage, "factor"),
    ], ids=["TestImage-size", "BoxBlur-radius", "DownsampleImage-factor"])
    def test_pixel_counts_must_be_positive_integers(self, unit_cls, param, value):
        """A fractional size or radius used to truncate (0.5 gave a 0x0
        image or an identity blur) and ``inf`` overflowed in ``process``."""
        msg = f"'{param}': must be a finite positive integer"
        with pytest.raises(ParameterError, match=msg):
            unit_cls(**{param: value})

    def test_test_image_unknown_pattern(self):
        with pytest.raises(UnitError):
            TestImage(pattern="spiral").process([])

    def test_invert_twice_is_identity_for_full_range(self):
        (img,) = TestImage(size=16, pattern="checker").process([])
        (inv,) = InvertImage().process([img])
        (back,) = InvertImage().process([inv])
        np.testing.assert_allclose(back.pixels, img.pixels)

    def test_threshold_binarises(self):
        (img,) = TestImage(size=16, pattern="gradient").process([])
        (b,) = ThresholdImage(level=0.5).process([img])
        assert set(np.unique(b.pixels)) <= {0.0, 1.0}

    def test_boxblur_preserves_mean(self):
        (img,) = TestImage(size=32, pattern="blob").process([])
        (blur,) = BoxBlur(radius=2).process([img])
        assert blur.pixels.mean() == pytest.approx(img.pixels.mean(), rel=0.05)
        assert blur.pixels.std() < img.pixels.std()

    def test_boxblur_constant_image_unchanged(self):
        img = ImageData(pixels=np.full((16, 16), 3.0))
        (blur,) = BoxBlur(radius=3).process([img])
        np.testing.assert_allclose(blur.pixels, 3.0)

    def test_sobel_flat_image_zero(self):
        img = ImageData(pixels=np.full((8, 8), 5.0))
        (edges,) = SobelEdges().process([img])
        np.testing.assert_allclose(edges.pixels, 0.0, atol=1e-12)

    def test_sobel_detects_edge(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 1.0
        (edges,) = SobelEdges().process([ImageData(pixels=img)])
        assert edges.pixels[:, 3:5].max() > 1.0

    def test_downsample(self):
        (img,) = TestImage(size=16).process([])
        (d,) = DownsampleImage(factor=4).process([img])
        assert d.shape == (4, 4)

    def test_downsample_too_small(self):
        with pytest.raises(UnitError):
            DownsampleImage(factor=64).process([ImageData(pixels=np.zeros((4, 4)))])

    def test_stats_and_profile(self):
        img = ImageData(pixels=np.ones((4, 8)))
        assert ImageStats().process([img])[0].value == 32.0
        np.testing.assert_allclose(RowProfile().process([img])[0].data, 4.0)


class TestDisplay:
    def test_grapher_records_frames(self):
        g = Grapher()
        g.process([SampleSet(data=np.arange(4.0), sampling_rate=2.0)])
        g.process([vec(1.0, 2.0)])
        assert len(g.frames) == 2
        np.testing.assert_allclose(g.last_frame.y, [1.0, 2.0])

    def test_grapher_empty_raises(self):
        with pytest.raises(UnitError):
            _ = Grapher().last_frame

    def test_grapher_rejects_undisplayable(self):
        with pytest.raises(UnitError):
            Grapher().process([object()])

    def test_grapher_checkpoint_round_trip(self):
        g = Grapher()
        g.process([vec(3.0, 4.0)])
        state = g.checkpoint()
        g2 = Grapher()
        g2.restore(state)
        np.testing.assert_allclose(g2.last_frame.y, [3.0, 4.0])

    def test_scope_probe_passthrough(self):
        p = ScopeProbe()
        payload = vec(1.0)
        (out,) = p.process([payload])
        assert out is payload and p.seen == [payload]
