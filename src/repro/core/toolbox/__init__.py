"""The built-in unit toolbox (system S5).

Importing this package registers every built-in unit in the global
registry — mirroring Triana's palette of ready-made tools.  Families:

* :mod:`.signal`  — the wave source, noise, FFTs, spectra, AccumStat, filters
* :mod:`.display` — Grapher and other sinks

The case-study apps (:mod:`repro.apps`) register their own units in the
galaxy and inspiral categories.
"""

from . import display, signal  # noqa: F401

from .display import Grapher, ScopeProbe
from .signal import (
    FFT,
    AccumStat,
    GaussianNoise,
    Gain,
    HighPass,
    InverseFFT,
    LowPass,
    Mixer,
    PowerSpectrum,
    Wave,
)

__all__ = [
    "AccumStat",
    "FFT",
    "Gain",
    "GaussianNoise",
    "Grapher",
    "HighPass",
    "InverseFFT",
    "LowPass",
    "Mixer",
    "PowerSpectrum",
    "ScopeProbe",
    "Wave",
]
