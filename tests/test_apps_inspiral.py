"""Tests for the inspiral-search scenario (Case 2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.apps.inspiral as inspiral_mod
from repro.apps.inspiral import (
    FLOPS_PER_TEMPLATE_SAMPLE,
    PAPER_CHUNK_BYTES,
    PAPER_CHUNK_SECONDS,
    PAPER_CPU_FLOPS,
    PAPER_HOURS_PER_CHUNK,
    PAPER_SAMPLING_RATE,
    PAPER_TEMPLATES_LOW,
    InspiralSearch,
    StrainSource,
    TemplateBank,
    build_inspiral_graph,
    chirp_waveform,
    chunk_search_flops,
    make_strain_chunk,
    matched_filter_snr,
    search_chunk,
)
from repro.core import LocalEngine
from repro.core.errors import ParameterError
from repro.core.types import SampleSet


class TestChirp:
    def test_frequency_increases(self):
        h = chirp_waveform(1.4, sampling_rate=2000.0)
        assert len(h) > 100
        zc = lambda x: np.sum(np.abs(np.diff(np.sign(x)))) / 2
        n = len(h) // 4
        assert zc(h[-n:]) > 1.5 * zc(h[:n])

    def test_amplitude_increases(self):
        h = chirp_waveform(1.4)
        n = len(h) // 4
        assert np.abs(h[-n:]).max() > np.abs(h[:n]).max()

    def test_heavier_binary_coalesces_faster(self):
        light = chirp_waveform(1.0)
        heavy = chirp_waveform(2.0)
        assert len(heavy) < len(light)

    def test_validation(self):
        with pytest.raises(ValueError):
            chirp_waveform(0.0)
        with pytest.raises(ValueError):
            chirp_waveform(1.4, f_low=100.0, f_high=50.0)


class TestTemplateBank:
    def test_size_and_normalisation(self):
        bank = TemplateBank(16)
        assert len(bank) == 16
        h = bank.template(7)
        assert np.sum(h**2) == pytest.approx(1.0)

    def test_templates_distinct(self):
        bank = TemplateBank(8)
        assert len(bank.template(0)) != len(bank.template(7))

    def test_lazy_cache(self):
        bank = TemplateBank(4)
        a = bank.template(1)
        assert bank.template(1) is a

    def test_index_checked(self):
        with pytest.raises(IndexError):
            TemplateBank(4).template(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemplateBank(0)
        with pytest.raises(ValueError):
            TemplateBank(4, mass_low=2.0, mass_high=1.0)


class TestMatchedFilter:
    def test_recovers_injection_time_and_template(self):
        bank = TemplateBank(32, sampling_rate=2000.0)
        target_idx = 20
        injection = bank.template(target_idx)
        offset = 1500
        chunk = make_strain_chunk(
            4.0,
            injection=injection,
            injection_offset=offset,
            injection_snr=15.0,
            seed=3,
        )
        result = search_chunk(chunk, bank, threshold=8.0)
        assert result.detected
        assert abs(result.best_offset - offset) <= 2
        assert abs(result.best_template - target_idx) <= 2
        assert result.best_snr == pytest.approx(15.0, rel=0.3)

    def test_pure_noise_stays_below_threshold(self):
        bank = TemplateBank(16)
        chunk = make_strain_chunk(4.0, seed=4)
        result = search_chunk(chunk, bank, threshold=8.0)
        assert not result.detected
        assert result.best_snr < 8.0

    def test_snr_scales_linearly(self):
        bank = TemplateBank(1, sampling_rate=2000.0)
        h = bank.template(0)
        snrs = []
        for target in (5.0, 10.0):
            chunk = make_strain_chunk(
                4.0, injection=h, injection_offset=100, injection_snr=target, seed=5
            )
            snr = matched_filter_snr(chunk.data, h)
            snrs.append(snr.max())
        assert snrs[1] / snrs[0] == pytest.approx(2.0, rel=0.2)

    def test_injection_must_fit(self):
        bank = TemplateBank(1)
        with pytest.raises(ValueError):
            make_strain_chunk(0.1, injection=bank.template(0), injection_offset=0)


def reference_search(chunk, bank, noise_sigma=1.0):
    """The search as a per-template loop through :func:`matched_filter_snr`
    — ``(best_template, best_offset, best_snr)``, strict ``>`` in template
    order."""
    best = (-1, -1, -np.inf)
    for idx in range(len(bank)):
        snr = matched_filter_snr(chunk.data, bank.template(idx), noise_sigma)
        peak = int(np.argmax(snr))
        if snr[peak] > best[2]:
            best = (idx, peak, float(snr[peak]))
    return best


def summary(result):
    return result.best_template, result.best_offset, result.best_snr.hex()


class TestBankSpectra:
    """The bank's kept spectra change how often a template is
    transformed, never a bit of any search."""

    N_TEMPLATES = 6
    ONE_SPECTRUM = (16384 // 2 + 1) * 16  # complex128, the larger nfft

    @pytest.mark.parametrize("budget", [None, 0, ONE_SPECTRUM])
    def test_search_is_bit_identical_to_bare_matched_filter(self, monkeypatch, budget):
        chunk = make_strain_chunk(2.0, seed=5)  # 4 000 samples: two nfft
        bank = TemplateBank(self.N_TEMPLATES)
        t, off, snr = reference_search(chunk, bank)
        if budget is not None:
            monkeypatch.setattr(inspiral_mod, "_SPECTRA_BYTES", budget)
        cold = search_chunk(chunk, bank)
        warm = search_chunk(chunk, bank)
        assert summary(cold) == summary(warm) == (t, off, snr.hex())
        # One array per nfft, whole or not at all: 6 rows are over one
        # spectrum's budget.
        kept = {None: {8192, 16384}, 0: set(), self.ONE_SPECTRUM: set()}[budget]
        assert set(bank._spectra) == kept
        assert bank._spectra_bytes <= inspiral_mod._SPECTRA_BYTES
        for nfft, (spectra, filled) in bank._spectra.items():
            assert spectra.shape == (self.N_TEMPLATES, nfft // 2 + 1)
            for i in np.flatnonzero(filled):
                expected = np.conj(np.fft.rfft(bank.template(i), nfft))
                assert spectra[i].tobytes() == expected.tobytes()
        if budget is None:
            # Each row is transformed at the length its search used.
            assert sum(f.sum() for _, f in bank._spectra.values()) == self.N_TEMPLATES

    def test_cached_arrays_are_read_only(self):
        bank = TemplateBank(2)
        with pytest.raises(ValueError, match="read-only"):
            bank.template(0)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bank.conj_spectra(0, 2, 16384)[1, 0] = 1.0

    def test_a_block_is_a_row_slice_of_the_kept_array(self):
        bank = TemplateBank(4)
        block = bank.conj_spectra(1, 3, 16384)
        spectra, filled = bank._spectra[16384]
        assert np.shares_memory(block, spectra)
        assert filled.tolist() == [False, True, True, False]
        assert bank.conj_spectra(2, 3, 16384)[0].tobytes() == block[1].tobytes()

    def test_over_budget_spectra_go_into_the_scratch(self, monkeypatch):
        monkeypatch.setattr(inspiral_mod, "_SPECTRA_BYTES", 0)
        bank = TemplateBank(3)
        out = np.empty((3, 8193), complex)
        block = bank.conj_spectra(0, 2, 16384, out=out)
        assert np.shares_memory(block, out) and block.shape == (2, 8193)
        assert bank._spectra == {} and bank._spectra_bytes == 0
        expected = np.conj(np.fft.rfft(bank.template(1), 16384))
        assert block[1].tobytes() == expected.tobytes()

    def test_scratch_is_kept_only_while_a_row_fits_the_block(self):
        bank = TemplateBank(8)
        fd, prod, corr = bank.scratch(8, 16384)
        assert (fd.shape, prod.shape, corr.shape) == ((8193,), (8, 8193), (8, 16384))
        assert all(np.shares_memory(a, bank._scratch) for a in (fd, prod, corr))
        assert all(a.flags.c_contiguous and a.flags.aligned for a in (fd, prod, corr))
        kept = bank._scratch.nbytes
        bank.scratch(2, 8192)  # a smaller block reuses the buffer
        assert bank._scratch.nbytes == kept
        big = 1 << 21  # the paper's 900 s chunk
        _, prod, corr = bank.scratch(1, big)
        assert corr.shape == (1, big) and not np.shares_memory(corr, bank._scratch)
        assert bank._scratch.nbytes == kept <= 3 * inspiral_mod._BLOCK_BYTES

    def test_equal_units_share_one_bank(self):
        chunk = make_strain_chunk(1.0, seed=2)
        banks = []
        real = inspiral_mod.search_chunk

        def spy(chunk, bank, **kwargs):
            banks.append(bank)
            return real(chunk, bank, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inspiral_mod, "search_chunk", spy)
            InspiralSearch(n_templates=4).process([chunk])
            InspiralSearch(n_templates=4, threshold=5.0).process([chunk])
            InspiralSearch(n_templates=4, mass_high=1.9).process([chunk])
        assert banks[0] is banks[1]
        assert banks[2] is not banks[0]


#: Bytes of one float64 row at the largest nfft a test chunk reaches.
_ROW = 8 * 32768


class TestBlockedSearchIsThePerTemplateFilter:
    """The blocked search against :func:`reference_search`, bit for bit:
    1-3 FFT lengths, 1-13 templates, any block and spectra budget."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12_000),
        n_templates=st.integers(1, 13),
        noise_sigma=st.sampled_from([1.0, 0.7, 1e-3, 3.0, 12.5]),
        block_bytes=st.sampled_from([8, 3 * _ROW, 1 << 40]),
        spectra_bytes=st.sampled_from([0, (32768 // 2 + 1) * 16, 1 << 40]),
        kind=st.sampled_from(["noise", "zeros", "injection"]),
        seed=st.integers(0, 2**16),
    )
    @example(n=8000, n_templates=13, noise_sigma=1.0, block_bytes=3 * _ROW,
             spectra_bytes=1 << 40, kind="noise", seed=0)  # one nfft
    @example(n=100, n_templates=13, noise_sigma=0.7, block_bytes=8,
             spectra_bytes=0, kind="injection", seed=1)  # three nfft
    def test_matches_reference(self, n, n_templates, noise_sigma, block_bytes,
                               spectra_bytes, kind, seed):
        bank = TemplateBank(n_templates)
        rng = np.random.default_rng(seed)
        data = np.zeros(n) if kind == "zeros" else rng.normal(0.0, noise_sigma, n)
        if kind == "injection":
            h = bank.template(int(rng.integers(n_templates)))
            if len(h) <= n:
                at = int(rng.integers(n - len(h) + 1))
                data[at:at + len(h)] += 10.0 * noise_sigma * h
        chunk = SampleSet(data=data, sampling_rate=PAPER_SAMPLING_RATE)
        t, off, snr = reference_search(chunk, bank, noise_sigma)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inspiral_mod, "_BLOCK_BYTES", block_bytes)
            mp.setattr(inspiral_mod, "_SPECTRA_BYTES", spectra_bytes)
            cold = search_chunk(chunk, bank, noise_sigma=noise_sigma)
            warm = search_chunk(chunk, bank, noise_sigma=noise_sigma)
        assert summary(cold) == summary(warm) == (t, off, snr.hex())


class TestRowsAreTheOneDimensionalTransform:
    """What the blocked search rests on: numpy transforms a 2-D array row
    by row with one plan, so each row is bit for bit the 1-D call.  If a
    numpy release ever vectorises across rows, this fails by name."""

    LENGTHS = st.sampled_from([16, 17, 255, 1024, 1531, 4096, 9999, 16384, 32768])

    @settings(max_examples=60, deadline=None)
    @given(nfft=LENGTHS, rows=st.integers(1, 9), fill=st.floats(0.05, 1.0),
           seed=st.integers(0, 2**16))
    def test_rfft_rows(self, nfft, rows, fill, seed):
        m = max(1, int(nfft * fill))  # m < nfft: zero-padded input
        x = np.random.default_rng(seed).normal(size=(rows, m))
        block = np.fft.rfft(x, nfft, axis=-1)
        for r in range(rows):
            assert block[r].tobytes() == np.fft.rfft(x[r], nfft).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(nfft=LENGTHS, rows=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_irfft_rows(self, nfft, rows, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, nfft // 2 + 1)
        spectra = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        block = np.fft.irfft(spectra, nfft, axis=-1)
        for r in range(rows):
            assert block[r].tobytes() == np.fft.irfft(spectra[r], nfft).tobytes()


class TestReparameterisedSearch:
    """The bank is looked up per call, so a live unit follows its
    parameters and its input (it used to keep its first bank for ever)."""

    def test_set_param_changes_the_bank(self):
        chunk = make_strain_chunk(2.0, seed=3)
        unit = InspiralSearch(n_templates=4)
        (before,) = unit.process([chunk])
        unit.set_param("n_templates", 16)
        (after,) = unit.process([chunk])
        (fresh,) = InspiralSearch(n_templates=16).process([chunk])
        assert after.rows == fresh.rows
        assert after.rows != before.rows

    def test_chunk_at_another_rate_gets_templates_at_that_rate(self):
        unit = InspiralSearch(n_templates=4)
        unit.process([make_strain_chunk(2.0, sampling_rate=2000.0, seed=1)])
        slow = make_strain_chunk(4.0, sampling_rate=1000.0, seed=1)
        (row,) = unit.process([slow])
        (fresh,) = InspiralSearch(n_templates=4).process([slow])
        assert row.rows == fresh.rows
        expected = search_chunk(slow, TemplateBank(4, sampling_rate=1000.0))
        assert row.rows[0][1:4] == (
            expected.best_template, expected.best_offset, expected.best_snr,
        )


class TestCostCalibration:
    def test_paper_constants(self):
        assert PAPER_CHUNK_BYTES == 7_200_000  # "7.2MB of data"
        assert PAPER_SAMPLING_RATE == 2000.0
        assert PAPER_CHUNK_SECONDS == 900.0

    def test_five_hours_per_chunk_on_2ghz(self):
        """The calibrated model reproduces 'about 5 hours on a 2 GHz PC'."""
        n_samples = int(PAPER_CHUNK_SECONDS * PAPER_SAMPLING_RATE)
        flops = chunk_search_flops(n_samples, PAPER_TEMPLATES_LOW)
        hours = flops / PAPER_CPU_FLOPS / 3600.0
        assert hours == pytest.approx(PAPER_HOURS_PER_CHUNK, rel=1e-6)

    def test_twenty_pcs_for_realtime(self):
        """Real-time needs chunk_time/duration ≈ 20 dedicated machines."""
        n_samples = int(PAPER_CHUNK_SECONDS * PAPER_SAMPLING_RATE)
        chunk_cpu_seconds = chunk_search_flops(n_samples, PAPER_TEMPLATES_LOW) / PAPER_CPU_FLOPS
        pcs_needed = chunk_cpu_seconds / PAPER_CHUNK_SECONDS
        assert pcs_needed == pytest.approx(20.0, rel=1e-6)

    def test_unit_cost_model_uses_calibration(self):
        unit = InspiralSearch(n_templates=5000)
        n_samples = 1_800_000
        assert unit.estimated_flops(n_samples * 8) == pytest.approx(
            FLOPS_PER_TEMPLATE_SAMPLE * n_samples * 5000
        )


class TestUnitsAndGraph:
    def test_strain_source_injects_periodically(self):
        src = StrainSource(duration=2.0, inject_every=2, seed=1, bank_templates=8)
        bank = TemplateBank(8)
        detections = []
        for _ in range(4):
            (chunk,) = src.process([])
            detections.append(search_chunk(chunk, bank).detected)
        assert detections == [False, True, False, True]

    def test_search_unit_outputs_table(self):
        src = StrainSource(duration=2.0, inject_every=1, injection_snr=15.0)
        (chunk,) = src.process([])
        unit = InspiralSearch(n_templates=16)
        (table,) = unit.process([chunk])
        assert table.columns[:2] == ["chunk_t0", "best_template"]
        assert table.column("detected") == [True]

    def test_graph_local_run_detects(self):
        g = build_inspiral_graph(n_templates=16, chunk_seconds=2.0, inject_every=3,
                                 policy="none")
        engine = LocalEngine(g)
        probe = engine.attach_probe("Search")
        engine.run(iterations=3)
        detections = [t.column("detected")[0] for t in probe.values]
        assert detections == [False, False, True]

    def test_distributed_farm_detects(self):
        from repro import ConsumerGrid

        g = build_inspiral_graph(n_templates=16, chunk_seconds=2.0, inject_every=3)
        grid = ConsumerGrid(n_workers=3, seed=21)
        report = grid.run(g, iterations=6)
        detections = [out[0].column("detected")[0] for out in report.group_results]
        assert detections == [False, False, True, False, False, True]


class TestBadParametersFailAtBuild:
    """A bad Case 2 parameter is a ParameterError naming it when the unit
    (or the graph) is built, not a wrong SNR or a failure on a worker."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("name,value", [
        ("n_templates", 0), ("n_templates", -3), ("n_templates", 2.5),
        ("mass_low", 0.0), ("mass_low", NAN), ("mass_high", -1.0), ("mass_high", INF),
        ("noise_sigma", -1.0), ("noise_sigma", NAN), ("noise_sigma", 0.0),
        ("threshold", NAN), ("threshold", INF),
    ])
    def test_search_unit(self, name, value):
        with pytest.raises(ParameterError, match=name):
            InspiralSearch(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("duration", 0.0), ("duration", -1.0), ("duration", NAN),
        ("sampling_rate", 0.0), ("sampling_rate", -5.0), ("sampling_rate", INF),
        ("noise_sigma", -1.0), ("noise_sigma", NAN),
        ("injection_snr", -2.0), ("injection_snr", NAN),
        ("injection_mass", 0.0),
        ("inject_every", -2), ("bank_templates", -1),
        ("mass_low", NAN), ("mass_high", NAN), ("mass_low", -1.0),
        ("seed", 1.5), ("seed", -1), ("seed", True),
    ])
    def test_strain_source(self, name, value):
        with pytest.raises(ParameterError, match=name):
            StrainSource(**{name: value})

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_templates": 0}, "n_templates"),
        ({"chunk_seconds": 0.0}, "duration"),
        ({"inject_every": -2}, "inject_every"),
    ])
    def test_graph(self, kwargs, name):
        with pytest.raises(ParameterError, match=name):
            build_inspiral_graph(**kwargs)

    def test_edge_values_still_build(self):
        InspiralSearch(threshold=-5.0, n_templates=1)
        StrainSource(noise_sigma=0.0, inject_every=0, injection_snr=0.0)

    @pytest.mark.parametrize("rate", [0.0, -5.0, NAN, INF])
    def test_bank_and_chirp_sampling_rate(self, rate):
        with pytest.raises(ValueError, match="sampling_rate"):
            TemplateBank(4, sampling_rate=rate)
        with pytest.raises(ValueError, match="sampling_rate"):
            chirp_waveform(1.4, sampling_rate=rate)
