"""Tests for the image and display toolbox families."""

import numpy as np
import pytest

from repro.core import ImageData, ParameterError, SampleSet, UnitError, VectorType
from repro.core.toolbox.display import Grapher, ScopeProbe
from repro.core.toolbox.imagepack import BoxBlur, SobelEdges, TestImage


def vec(*values):
    return VectorType(data=np.array(values, dtype=float))


class TestImages:
    def test_test_image_patterns(self):
        for pattern in ("blob", "gradient", "checker"):
            (img,) = TestImage(size=16, pattern=pattern).process([])
            assert img.shape == (16, 16)

    @pytest.mark.parametrize("value", [0.5, 2.7, 2.0, True, np.inf])
    @pytest.mark.parametrize("unit_cls,param", [
        (TestImage, "size"), (BoxBlur, "radius"),
    ], ids=["TestImage-size", "BoxBlur-radius"])
    def test_pixel_counts_must_be_positive_integers(self, unit_cls, param, value):
        """A fractional size or radius used to truncate (0.5 gave a 0x0
        image or an identity blur) and ``inf`` overflowed in ``process``."""
        msg = f"'{param}': must be a finite positive integer"
        with pytest.raises(ParameterError, match=msg):
            unit_cls(**{param: value})

    def test_test_image_unknown_pattern(self):
        with pytest.raises(ParameterError, match="'pattern': must be one of"):
            TestImage(pattern="spiral")

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
