"""Tests for the display toolbox family."""

import numpy as np
import pytest

from repro.core import (
    ComplexSpectrum,
    Const,
    GraphData,
    SampleSet,
    Spectrum,
    UnitError,
    VectorType,
)
from repro.core.toolbox.display import Grapher, ScopeProbe, _to_graph_data

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
