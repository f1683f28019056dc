"""Tests for the display toolbox family."""

import numpy as np
import pytest

from repro.core import SampleSet, UnitError, VectorType
from repro.core.toolbox.display import Grapher, ScopeProbe

from .test_frame_budget import traced_peak


def vec(*values):
    return VectorType(data=np.array(values, dtype=float))


class TestDisplay:
    def test_grapher_records_frames(self):
        g = Grapher()
        g.process([SampleSet(data=np.arange(4.0), sampling_rate=2.0)])
        g.process([vec(1.0, 2.0)])
        assert len(g.shown) == 2
        np.testing.assert_allclose(g.shown[-1].data, [1.0, 2.0])

    def test_grapher_rejects_undisplayable(self):
        with pytest.raises(UnitError):
            Grapher().process([object()])

    def test_showing_frames_adds_no_array(self):
        """The Grapher holds a reference to each payload, not a rendering:
        no 131 KB time axis per SampleSet is built or kept."""
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
        assert len(g.shown) == 200

    def test_scope_probe_passthrough(self):
        p = ScopeProbe()
        payload = vec(1.0)
        (out,) = p.process([payload])
        assert out is payload and p.seen == [payload]
