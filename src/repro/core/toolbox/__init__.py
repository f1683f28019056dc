"""The built-in unit toolbox (system S5).

Importing this package registers every built-in unit in the global
registry — mirroring Triana's palette of ready-made tools.  Families:

* :mod:`.signal`     — the wave source, noise, FFTs, spectra, AccumStat, filters
* :mod:`.vectorpack` — shaping, resampling, multi-output splitters
* :mod:`.imagepack`  — a test image, box blur and Sobel edges
* :mod:`.display`    — Grapher and other sinks
"""

from . import display, imagepack, signal, vectorpack  # noqa: F401

from .display import Grapher, ScopeProbe
from .signal import (
    FFT,
    AccumStat,
    Decimate,
    GaussianNoise,
    Gain,
    HighPass,
    InverseFFT,
    LowPass,
    Mixer,
    Offset,
    PowerSpectrum,
    Wave,
)

__all__ = [
    "AccumStat",
    "Decimate",
    "FFT",
    "Gain",
    "GaussianNoise",
    "Grapher",
    "HighPass",
    "InverseFFT",
    "LowPass",
    "Mixer",
    "Offset",
    "PowerSpectrum",
    "ScopeProbe",
    "Wave",
]
