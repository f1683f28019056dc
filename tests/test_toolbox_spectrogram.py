"""Tests for the Spectrogram unit."""

import numpy as np
import pytest

from repro.core import SampleSet, UnitError
from repro.core.toolbox.signal import Spectrogram


class TestSpectrogram:
    def chirp(self, n=2048, fs=1024.0):
        t = np.arange(n) / fs
        freq = 50.0 + 150.0 * t / (n / fs)
        phase = 2 * np.pi * np.cumsum(freq) / fs
        return SampleSet(data=np.sin(phase), sampling_rate=fs)

    def test_shape_and_axes(self):
        (tf,) = Spectrogram(window=128, hop=64).process([self.chirp()])
        assert tf.data.shape == ((2048 - 128) // 64 + 1, 65)
        assert tf.dt == pytest.approx(64 / 1024.0)
        assert tf.df == pytest.approx(8.0)

    def test_tracks_rising_chirp(self):
        (tf,) = Spectrogram(window=128, hop=64).process([self.chirp()])
        first_peak = tf.data[0].argmax() * tf.df
        last_peak = tf.data[-1].argmax() * tf.df
        assert last_peak > first_peak + 80.0

    def test_stationary_tone_constant_ridge(self):
        t = np.arange(1024) / 1024.0
        sig = SampleSet(data=np.sin(2 * np.pi * 100 * t), sampling_rate=1024.0)
        (tf,) = Spectrogram(window=128, hop=64).process([sig])
        ridges = tf.data.argmax(axis=1) * tf.df
        assert np.allclose(ridges, 100.0, atol=tf.df)

    def test_too_short_signal(self):
        with pytest.raises(UnitError):
            Spectrogram(window=256).process(
                [SampleSet(data=np.zeros(64), sampling_rate=1.0)]
            )

    def test_inspiral_chirp_visible(self):
        """The Case-2 signal rises through the spectrogram."""
        from repro.apps.inspiral import chirp_waveform

        h = chirp_waveform(1.4, sampling_rate=2000.0)
        sig = SampleSet(data=h, sampling_rate=2000.0)
        (tf,) = Spectrogram(window=256, hop=64).process([sig])
        ridge = tf.data.argmax(axis=1) * tf.df
        assert ridge[-1] > ridge[0]
