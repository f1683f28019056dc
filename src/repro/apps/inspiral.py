"""Case 2 — inspiral search for coalescing binaries (§3.6.2).

The paper's quantitative anchor: GEO600-style strain sampled effectively
at 2,000 S/s, cut into 900 s chunks (4 B × 900 × 2000 = **7.2 MB**),
correlated against a library of **5,000–10,000 templates**; one chunk
"takes about 5 hours on a 2 GHz PC", so ~**20 PCs** are needed to keep up
in real time — more on a Consumer Grid with downtime.

This module implements the search for real (synthetic strain + Newtonian
chirp templates + FFT matched filter) and calibrates the *cost model* to
the paper's numbers so grid-scale sizing simulates honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from ..core.errors import UnitError
from ..core.registry import register_unit
from ..core.types import SampleSet, TableData
from ..core.units import (
    ParamSpec,
    Unit,
    _finite,
    _non_negative,
    _non_negative_int,
    _positive,
    _positive_int,
)
from ..core.taskgraph import TaskGraph

__all__ = [
    "PAPER_SAMPLING_RATE",
    "PAPER_CHUNK_SECONDS",
    "PAPER_CHUNK_BYTES",
    "PAPER_TEMPLATES_LOW",
    "PAPER_HOURS_PER_CHUNK",
    "PAPER_CPU_FLOPS",
    "FLOPS_PER_TEMPLATE_SAMPLE",
    "chirp_waveform",
    "TemplateBank",
    "make_strain_chunk",
    "matched_filter_snr",
    "template_match",
    "bank_minimal_match",
    "templates_for_minimal_match",
    "search_chunk",
    "InspiralSearch",
    "StrainSource",
    "SearchResult",
    "build_inspiral_graph",
    "chunk_search_flops",
]

# -- the paper's stated parameters -------------------------------------------------
PAPER_SAMPLING_RATE = 2000.0  # "2,000 samples per second"
PAPER_CHUNK_SECONDS = 900.0  # "chunks of 15 minutes in duration"
PAPER_CHUNK_BYTES = int(4 * 900 * 2000)  # "7.2MB of data (4 x 900 x 2000)"
PAPER_TEMPLATES_LOW = 5_000
PAPER_HOURS_PER_CHUNK = 5.0  # "about 5 hours on a 2 GHz PC" (5000 templates)
PAPER_CPU_FLOPS = 2.0e9

#: Calibrated so that 5,000 templates × one 900 s chunk = 5 h on 2 GHz:
#: flops = k · n_templates · n_samples, with n_samples = 1.8e6.
FLOPS_PER_TEMPLATE_SAMPLE = (
    PAPER_HOURS_PER_CHUNK * 3600.0 * PAPER_CPU_FLOPS
    / (PAPER_TEMPLATES_LOW * PAPER_CHUNK_SECONDS * PAPER_SAMPLING_RATE)
)  # = 4.0 flops per template-sample


def _check_sampling_rate(sampling_rate: float) -> None:
    if not (sampling_rate > 0 and math.isfinite(sampling_rate)):
        raise ValueError(
            f"sampling_rate must be finite and positive, got {sampling_rate!r}"
        )


def chirp_waveform(
    chirp_mass: float,
    sampling_rate: float = PAPER_SAMPLING_RATE,
    f_low: float = 40.0,
    f_high: float = 900.0,
    amplitude: float = 1.0,
) -> np.ndarray:
    """A Newtonian-order inspiral chirp h(t).

    The orbit shrinks, so "a characteristic chirp waveform is produced
    whose amplitude and frequency increase with time" — the frequency
    evolves as f(t) = (k·(tc − t))^(−3/8) with k set by the chirp mass;
    amplitude grows as f^(2/3).
    """
    if chirp_mass <= 0:
        raise ValueError("chirp_mass must be positive")
    if not 0 < f_low < f_high:
        raise ValueError("need 0 < f_low < f_high")
    _check_sampling_rate(sampling_rate)
    # Newtonian coalescence-time coefficient (geometric units folded into
    # a single constant chosen to give second-scale signals for ~1 M☉
    # chirp masses in the 40 Hz–900 Hz band, like the real search).
    k = 256.0 / 5.0 * (np.pi ** (8.0 / 3.0)) * chirp_mass ** (5.0 / 3.0) * 2.0e-8
    t_coal = 1.0 / (k * f_low ** (8.0 / 3.0))  # time from f_low to merger
    dt = 1.0 / sampling_rate
    t = np.arange(0.0, t_coal, dt)
    tau = np.maximum(t_coal - t, dt)
    freq = np.minimum((k * tau) ** (-3.0 / 8.0) * f_low * (k * t_coal) ** (3.0 / 8.0), f_high)
    phase = 2.0 * np.pi * np.cumsum(freq) * dt
    amp = amplitude * (freq / f_low) ** (2.0 / 3.0)
    h = amp * np.sin(phase)
    # Stop at f_high (merger, outside the searchable band).
    cut = np.argmax(freq >= f_high) or len(h)
    return h[:cut]


#: Bytes of conjugate spectra one bank keeps (:meth:`TemplateBank.
#: conj_spectra`): one ``(n_templates, nfft // 2 + 1)`` array per FFT
#: length while it fits.  Past it a block's spectra are recomputed on every
#: use — never evicted, so a sweep larger than the budget does not thrash
#: it.  8 templates against a 4 s chunk are 1 MiB; against a 900 s chunk,
#: 134 MB.
_SPECTRA_BYTES = 64 << 20

#: Bytes of one block's inverse-transform output: a search sends
#: ``_BLOCK_BYTES // (8 * nfft)`` templates (at least one) through each
#: ``irfft`` call — 8 at ``nfft`` 16 384, 1 for the paper's 900 s chunk.
_BLOCK_BYTES = 1 << 20


class TemplateBank:
    """A grid of chirp templates spanning a chirp-mass range.

    "it performs fast correlation on the data set with each template in a
    library of between 5,000 and 10,000 templates."

    Templates and their spectra are built on first use, kept, and handed
    out read-only: units with equal parameters share one bank.  The bank
    also keeps one search's scratch (:meth:`scratch`), so it serves one
    search at a time.
    """

    def __init__(
        self,
        n_templates: int,
        mass_low: float = 0.8,
        mass_high: float = 2.0,
        sampling_rate: float = PAPER_SAMPLING_RATE,
        f_low: float = 40.0,
    ):
        if n_templates < 1:
            raise ValueError("n_templates must be >= 1")
        if not 0 < mass_low < mass_high:
            raise ValueError("need 0 < mass_low < mass_high")
        _check_sampling_rate(sampling_rate)
        self.n_templates = n_templates
        self.sampling_rate = sampling_rate
        self.masses = np.linspace(mass_low, mass_high, n_templates)
        self.f_low = f_low
        self._cache: dict[int, np.ndarray] = {}
        #: nfft -> (conjugate spectra, one row per template; rows filled)
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._spectra_bytes = 0
        self._scratch = np.empty(0, np.uint8)

    def template(self, index: int) -> np.ndarray:
        """Normalised template waveform by bank index (lazily built)."""
        if not 0 <= index < self.n_templates:
            raise IndexError(f"template index {index} out of range")
        if index not in self._cache:
            h = chirp_waveform(
                float(self.masses[index]),
                sampling_rate=self.sampling_rate,
                f_low=self.f_low,
            )
            norm = np.sqrt(np.sum(h**2))
            h = h / norm if norm > 0 else h
            h.setflags(write=False)
            self._cache[index] = h
        return self._cache[index]

    def conj_spectra(
        self, lo: int, hi: int, nfft: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows ``conj(rfft(template(i), nfft))`` for ``lo <= i < hi`` —
        what a matched filter multiplies the chunk spectrum by, the same
        rows for every chunk of one length ("generates its templates",
        once per node).

        A read-only slice of the bank's array for ``nfft``, each row
        transformed on first use.  Past ``_SPECTRA_BYTES`` the rows are
        transformed into ``out[:hi - lo]`` (fresh if ``None``) on every
        call instead.
        """
        kept = self._spectra.get(nfft)
        if kept is None:
            shape = (self.n_templates, nfft // 2 + 1)
            nbytes = shape[0] * shape[1] * 16
            if self._spectra_bytes + nbytes > _SPECTRA_BYTES:
                if out is None:
                    out = np.empty((hi - lo, shape[1]), complex)
                for row, i in enumerate(range(lo, hi)):
                    self._conj_rfft(i, nfft, out[row])
                return out[: hi - lo]
            kept = np.empty(shape, complex), np.zeros(shape[0], bool)
            self._spectra[nfft] = kept
            self._spectra_bytes += nbytes
        spectra, filled = kept
        for i in range(lo, hi):
            if not filled[i]:
                self._conj_rfft(i, nfft, spectra[i])
                filled[i] = True
        rows = spectra[lo:hi]
        rows.setflags(write=False)
        return rows

    def _conj_rfft(self, index: int, nfft: int, out: np.ndarray) -> None:
        np.fft.rfft(self.template(index), nfft, out=out)
        np.conjugate(out, out=out)

    def scratch(self, rows: int, nfft: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fd, prod, corr)`` for a search of ``rows`` templates per
        block at ``nfft``: the chunk's spectrum, a block's products and a
        block's correlations.

        Views of one buffer the bank keeps, grown to the largest block it
        has served, while one output row fits ``_BLOCK_BYTES`` (2.1 MiB
        for 8 templates at ``nfft`` 16 384, at most about
        ``3 * _BLOCK_BYTES``); fresh arrays past it, so a 900 s chunk's
        48 MiB is not retained.
        """
        half = nfft // 2 + 1
        if 8 * nfft > _BLOCK_BYTES:
            return (
                np.empty(half, complex),
                np.empty((rows, half), complex),
                np.empty((rows, nfft)),
            )
        a = half * 16
        b = a + rows * a
        end = b + rows * nfft * 8
        if self._scratch.nbytes < end:
            self._scratch = np.empty(end, np.uint8)
        buf = self._scratch
        return (
            buf[:a].view(complex),
            buf[a:b].view(complex).reshape(rows, half),
            buf[b:end].view(np.float64).reshape(rows, nfft),
        )

    def __len__(self) -> int:
        return self.n_templates


def template_match(a: np.ndarray, b: np.ndarray) -> float:
    """Best-over-time-shift normalised overlap of two templates (0..1).

    The quantity template-bank design maximises: a bank is adequate when
    any signal in band matches *some* template above the minimal match.
    """
    na = np.sqrt(np.sum(a**2))
    nb = np.sqrt(np.sum(b**2))
    if na == 0 or nb == 0:
        raise ValueError("cannot match a zero template")
    n = len(a) + len(b) - 1
    nfft = 1 << int(np.ceil(np.log2(max(n, 2))))
    corr = np.fft.irfft(np.fft.rfft(a, nfft) * np.conj(np.fft.rfft(b, nfft)), nfft)
    return float(np.max(np.abs(corr)) / (na * nb))


def bank_minimal_match(bank: "TemplateBank") -> float:
    """Worst adjacent-template match across the bank.

    A signal lying between two grid points matches its neighbours at
    least this well (to first order), so this is the bank's coverage
    guarantee.  Sparse banks → low minimal match → missed signals.
    """
    if len(bank) < 2:
        return 1.0
    matches = [
        template_match(bank.template(i), bank.template(i + 1))
        for i in range(len(bank) - 1)
    ]
    return float(min(matches))


def templates_for_minimal_match(
    target: float,
    mass_low: float = 0.8,
    mass_high: float = 2.0,
    sampling_rate: float = PAPER_SAMPLING_RATE,
    n_max: int = 4096,
) -> int:
    """Smallest bank size whose minimal match reaches ``target``.

    Doubling search then bisection; the answer grows roughly linearly in
    1/(1 − target), which is why realistic matches (≳0.97) over a wide
    mass range need banks of thousands — the paper's 5,000–10,000.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target match must be in (0, 1)")

    def mm(n: int) -> float:
        return bank_minimal_match(
            TemplateBank(n, mass_low=mass_low, mass_high=mass_high,
                         sampling_rate=sampling_rate)
        )

    lo, hi = 2, 2
    while mm(hi) < target:
        hi *= 2
        if hi > n_max:
            raise ValueError(
                f"target match {target} needs more than {n_max} templates"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mm(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def make_strain_chunk(
    duration: float,
    sampling_rate: float = PAPER_SAMPLING_RATE,
    noise_sigma: float = 1.0,
    injection: np.ndarray | None = None,
    injection_offset: int = 0,
    injection_snr: float = 10.0,
    seed: int = 0,
) -> SampleSet:
    """Synthetic detector strain: white noise + optional chirp injection.

    ``injection_snr`` is the optimal matched-filter SNR of the injected
    signal in this noise.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sampling_rate))
    data = rng.normal(0.0, noise_sigma, n)
    if injection is not None:
        h = np.asarray(injection, dtype=float)
        norm = np.sqrt(np.sum(h**2))
        if norm == 0:
            raise ValueError("injection waveform is identically zero")
        scaled = h * (injection_snr * noise_sigma / norm)
        end = injection_offset + len(h)
        if injection_offset < 0 or end > n:
            raise ValueError("injection does not fit inside the chunk")
        data[injection_offset:end] += scaled
    return SampleSet(data=data, sampling_rate=sampling_rate)


def _matched_filter_nfft(n_chunk: int, n_template: int) -> int:
    """FFT length for a linear correlation: next power of two >= n+m-1."""
    return 1 << int(np.ceil(np.log2(max(n_chunk + n_template - 1, 2))))


def matched_filter_snr(
    chunk: np.ndarray,
    template: np.ndarray,
    noise_sigma: float = 1.0,
) -> np.ndarray:
    """SNR time series of one normalised template against a chunk — the
    one-template form of :func:`search_chunk`, bit for bit."""
    n = len(chunk)
    nfft = _matched_filter_nfft(n, len(template))
    fd = np.fft.rfft(chunk, nfft)
    cft = np.conj(np.fft.rfft(template, nfft))
    corr = np.fft.irfft(fd * cft, nfft)[:n]
    return corr / noise_sigma


@dataclass(frozen=True)
class SearchResult:
    """Best-match summary for one chunk."""

    best_template: int
    best_offset: int
    best_snr: float
    threshold: float
    detected: bool


def _nfft_runs(bank: TemplateBank, n_chunk: int) -> list[list[int]]:
    """``[nfft, lo, hi]`` per run of consecutive templates that share an
    FFT length.  Templates shorten as the mass index rises, so each length
    is one run."""
    runs: list[list[int]] = []
    for idx in range(len(bank)):
        nfft = _matched_filter_nfft(n_chunk, len(bank.template(idx)))
        if runs and runs[-1][0] == nfft:
            runs[-1][2] = idx + 1
        else:
            runs.append([nfft, idx, idx + 1])
    return runs


def search_chunk(
    chunk: SampleSet,
    bank: TemplateBank,
    noise_sigma: float = 1.0,
    threshold: float = 8.0,
) -> SearchResult:
    """Correlate a chunk against every template; report the loudest peak.

    Per FFT length the chunk is transformed once; then, per block of up to
    ``_BLOCK_BYTES // (8 * nfft)`` templates, one product with the bank's
    spectra and one inverse transform, into the bank's scratch.  numpy
    runs a 2-D transform row by row with one plan, so each row is the 1-D
    transform: bit-identical to :func:`matched_filter_snr` per template,
    with ties to the lowest template index and offset.
    """
    best = (-1, -1, -np.inf)
    data = chunk.data
    n = len(data)
    for nfft, lo, hi in _nfft_runs(bank, n):
        rows = max(1, min(hi - lo, _BLOCK_BYTES // (8 * nfft)))
        fd, prod, corr = bank.scratch(rows, nfft)
        np.fft.rfft(data, nfft, out=fd)
        for start in range(lo, hi, rows):
            k = min(rows, hi - start)
            spectra = bank.conj_spectra(start, start + k, nfft, out=prod)
            np.multiply(fd, spectra, out=prod[:k])
            np.fft.irfft(prod[:k], nfft, axis=-1, out=corr[:k])
            for row in range(k):
                # Per row: a 2-D argmax over the strided [:, :n] view copies it.
                snr = corr[row, :n]
                np.divide(snr, noise_sigma, out=snr)
                peak = int(np.argmax(snr))
                if snr[peak] > best[2]:
                    best = (start + row, peak, float(snr[peak]))
    return SearchResult(
        best_template=best[0],
        best_offset=best[1],
        best_snr=best[2],
        threshold=threshold,
        detected=best[2] >= threshold,
    )


def chunk_search_flops(n_samples: int, n_templates: int) -> float:
    """Modelled cost of searching one chunk (paper-calibrated)."""
    return FLOPS_PER_TEMPLATE_SAMPLE * n_samples * n_templates


@lru_cache(maxsize=2)
def _shared_bank(
    n_templates: int, mass_low: float, mass_high: float, sampling_rate: float
) -> TemplateBank:
    """The process's bank for these parameters — the paper's "the node
    initialises i.e. generates its templates", done once per node rather
    than once per unit.  Retains at most two banks, each its templates,
    up to ``_SPECTRA_BYTES`` of spectra and one block of search scratch
    (about ``2 * _BLOCK_BYTES``)."""
    return TemplateBank(
        n_templates, mass_low=mass_low, mass_high=mass_high, sampling_rate=sampling_rate
    )


@register_unit(category="inspiral")
class InspiralSearch(Unit):
    """The per-node search unit: one strain chunk in, one result row out.

    "This data is transmitted to a Triana node and processed locally.
    The node initialises i.e. generates its templates (a trivial
    computational step) and then it performs fast correlation on the data
    set with each template."
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (TableData,)
    CODE_SIZE = 80_000
    PARAMETERS = (
        ParamSpec("n_templates", 64, "template library size", _positive_int),
        ParamSpec("mass_low", 0.8, "lowest chirp mass", _positive),
        ParamSpec("mass_high", 2.0, "highest chirp mass", _positive),
        ParamSpec("noise_sigma", 1.0, "detector noise level", _positive),
        ParamSpec("threshold", 8.0, "detection SNR threshold", _finite),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (chunk,) = inputs
        if len(chunk.data) == 0:
            raise UnitError("InspiralSearch: empty chunk")
        # Looked up per call: a re-parameterised unit, or a chunk at
        # another sampling rate, is searched with the bank it asks for.
        bank = _shared_bank(
            int(self.get_param("n_templates")),
            float(self.get_param("mass_low")),
            float(self.get_param("mass_high")),
            float(chunk.sampling_rate),
        )
        result = search_chunk(
            chunk,
            bank,
            noise_sigma=float(self.get_param("noise_sigma")),
            threshold=float(self.get_param("threshold")),
        )
        table = TableData(
            ["chunk_t0", "best_template", "best_offset", "best_snr", "detected"],
            [
                (
                    chunk.t0,
                    result.best_template,
                    result.best_offset,
                    result.best_snr,
                    result.detected,
                )
            ],
        )
        return [table]

    def estimated_flops(self, input_nbytes: int) -> float:
        n_samples = max(input_nbytes / 8.0, 1.0)
        return chunk_search_flops(int(n_samples), int(self.get_param("n_templates")))


@register_unit(category="inspiral")
class StrainSource(Unit):
    """Emits successive synthetic strain chunks (the detector feed)."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("duration", 4.0, "chunk length, seconds", _positive),
        ParamSpec("sampling_rate", PAPER_SAMPLING_RATE, "samples per second", _positive),
        ParamSpec("noise_sigma", 1.0, "noise level", _non_negative),
        ParamSpec(
            "inject_every", 3, "inject a chirp into every k-th chunk (0=never)",
            _non_negative,
        ),
        ParamSpec("injection_snr", 12.0, "optimal SNR of injections", _non_negative),
        ParamSpec("injection_mass", 1.4, "chirp mass of injections", _positive),
        ParamSpec(
            "bank_templates",
            0,
            "if > 0, snap the injection mass to the nearest point of a "
            "linspace(mass_low, mass_high, bank_templates) grid — software "
            "injections at template points, as search validation does",
            _non_negative,
        ),
        ParamSpec("mass_low", 0.8, "bank grid lower bound (for snapping)", _positive),
        ParamSpec("mass_high", 2.0, "bank grid upper bound (for snapping)", _positive),
        ParamSpec("seed", 0, "noise seed base", _non_negative_int),
    )

    def reset(self) -> None:
        self._chunk_index = 0

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        i = self._chunk_index
        self._chunk_index += 1
        duration = float(self.get_param("duration"))
        fs = float(self.get_param("sampling_rate"))
        every = int(self.get_param("inject_every"))
        injection = None
        offset = 0
        if every > 0 and i % every == every - 1:
            mass = float(self.get_param("injection_mass"))
            n_bank = int(self.get_param("bank_templates"))
            if n_bank > 0:
                grid = np.linspace(
                    float(self.get_param("mass_low")),
                    float(self.get_param("mass_high")),
                    n_bank,
                )
                mass = float(grid[np.argmin(np.abs(grid - mass))])
            injection = chirp_waveform(mass, sampling_rate=fs)
            room = int(duration * fs) - len(injection)
            if room <= 0:
                raise UnitError("StrainSource: chunk too short for injection")
            offset = (i * 977) % room  # deterministic scatter of arrival times
        chunk = make_strain_chunk(
            duration,
            sampling_rate=fs,
            noise_sigma=float(self.get_param("noise_sigma")),
            injection=injection,
            injection_offset=offset,
            injection_snr=float(self.get_param("injection_snr")),
            seed=int(self.get_param("seed")) + i,
        )
        chunk.t0 = i * duration
        return [chunk]


def build_inspiral_graph(
    n_templates: int = 64,
    chunk_seconds: float = 4.0,
    inject_every: int = 3,
    policy: str = "parallel",
    seed: int = 0,
) -> TaskGraph:
    """Case-2 task graph: StrainSource → [InspiralSearch]@policy → Grapher."""
    g = TaskGraph("inspiral-search")
    g.add_task(
        "Strain",
        "StrainSource",
        duration=chunk_seconds,
        inject_every=inject_every,
        bank_templates=n_templates,
        seed=seed,
    )
    g.add_task("Search", "InspiralSearch", n_templates=n_templates)
    g.add_task("Console", "ScopeProbe")
    g.connect("Strain", 0, "Search", 0)
    g.connect("Search", 0, "Console", 0)
    g.group_tasks("SearchFarm", ["Search"], policy=policy)
    return g
