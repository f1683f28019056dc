"""The built-in unit toolbox (system S5).

Importing this package registers every built-in unit in the global
registry — mirroring Triana's palette of ready-made tools.  Families:

* :mod:`.signal`     — waveform sources, FFTs, spectra, AccumStat, filters
* :mod:`.mathpack`   — scalar/vector arithmetic, reductions, histograms
* :mod:`.statistics` — running/windowed estimators, peak detection
* :mod:`.vectorpack` — shaping, resampling, multi-output splitters
* :mod:`.conversion` — bridges between the payload families
* :mod:`.textpack`   — text manipulation
* :mod:`.imagepack`  — image processing
* :mod:`.display`    — Grapher and other sinks
"""

from . import (  # noqa: F401
    conversion,
    display,
    imagepack,
    mathpack,
    signal,
    statistics,
    textpack,
    vectorpack,
)

from .display import Grapher, ScopeProbe, TextConsole
from .signal import (
    FFT,
    AccumStat,
    AmplitudeSpectrum,
    ChirpGenerator,
    Correlate,
    Decimate,
    GaussianNoise,
    Gain,
    HighPass,
    InverseFFT,
    LowPass,
    Mixer,
    Offset,
    PowerSpectrum,
    SampleSetToGraph,
    SpectrumToGraph,
    UniformNoise,
    Wave,
    WindowFn,
)

__all__ = [
    "AccumStat",
    "AmplitudeSpectrum",
    "ChirpGenerator",
    "Correlate",
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
    "SampleSetToGraph",
    "ScopeProbe",
    "SpectrumToGraph",
    "TextConsole",
    "UniformNoise",
    "Wave",
    "WindowFn",
]
