"""Tests for the image and display toolbox families."""

import numpy as np
import pytest

from repro.core import (
    ComplexSpectrum,
    Const,
    GraphData,
    ImageData,
    ParameterError,
    SampleSet,
    Spectrum,
    UnitError,
    VectorType,
)
from repro.core.toolbox.display import Grapher, ScopeProbe, _to_graph_data
from repro.core.toolbox.imagepack import BoxBlur, SobelEdges, TestImage

from .test_frame_budget import traced_peak


def vec(*values):
    return VectorType(data=np.array(values, dtype=float))


def displayable_payloads():
    """One payload of each type a Grapher can display."""
    return [
        SampleSet(data=np.linspace(-1.0, 1.0, 16), sampling_rate=3.0, t0=0.25),
        Spectrum(data=np.arange(5.0), df=0.5),
        ComplexSpectrum(data=np.arange(4.0) + 1j, df=2.0),
        vec(3.0, -4.0, 5.0),
        Const(value=2.5),
        GraphData(x=[0.0, 1.0], y=[2.0, 3.0], label="given"),
    ]


def frame_state(frame):
    return {"x": frame.x.tolist(), "y": frame.y.tolist(), "label": frame.label}


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

    def test_reading_a_frame_gives_the_eager_rendering(self):
        """Frames render on read; each equals what rendering the payload
        when it was shown gives (what the Grapher once stored)."""
        g = Grapher()
        eager = []
        for payload in displayable_payloads():
            eager.append(_to_graph_data(payload))
            g.process([payload])
            frame = g.last_frame
            assert np.array_equal(frame.x, eager[-1].x)
            assert np.array_equal(frame.y, eager[-1].y)
            assert frame.label == eager[-1].label
        assert [frame_state(f) for f in g.frames] == [frame_state(f) for f in eager]
        assert g.checkpoint() == {"frames": [frame_state(f) for f in eager]}

    def test_checkpoint_round_trips_restored_and_new_frames(self):
        before = Grapher()
        before.process([vec(1.0, 2.0)])
        before.process([Const(value=7.0)])
        g = Grapher()
        g.restore(before.checkpoint())
        for payload in displayable_payloads():
            g.process([payload])
        state = g.checkpoint()
        assert state["frames"][:2] == before.checkpoint()["frames"]
        assert len(state["frames"]) == 2 + len(displayable_payloads())
        again = Grapher()
        again.restore(state)
        assert again.checkpoint() == state

    def test_showing_frames_adds_no_array(self):
        """The Grapher holds a reference to each payload, not a rendering:
        a SampleSet's 131 KB time axis is built on read, never kept."""
        payloads = [
            SampleSet(data=np.full(16_384, float(i)), sampling_rate=1024.0)
            for i in range(200)
        ]
        Grapher().process([payloads[0]])  # first-call set-up done
        g = Grapher()

        def show_all():
            for payload in payloads:
                g.process([payload])

        assert traced_peak(show_all) <= 200 * 1024
        assert len(g.frames) == 200

    def test_scope_probe_passthrough(self):
        p = ScopeProbe()
        payload = vec(1.0)
        (out,) = p.process([payload])
        assert out is payload and p.seen == [payload]
