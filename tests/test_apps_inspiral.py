"""Tests for the inspiral-search scenario (Case 2)."""

import numpy as np
import pytest

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


class TestBankSpectra:
    """The bank's kept spectra change how often a template is
    transformed, never a bit of any SNR series."""

    N_TEMPLATES = 6
    ONE_SPECTRUM = (16384 // 2 + 1) * 16  # complex128, the larger nfft

    def snr_series(self, chunk, bank):
        """Every SNR series ``search_chunk`` computes, as bytes."""
        seen = []
        real = inspiral_mod.matched_filter_snr

        def spy(*args, **kwargs):
            assert kwargs["_template_cfd"] is not None
            seen.append(real(*args, **kwargs).tobytes())
            return np.frombuffer(seen[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inspiral_mod, "matched_filter_snr", spy)
            result = search_chunk(chunk, bank)
        return seen, result

    @pytest.mark.parametrize("budget", [None, 0, ONE_SPECTRUM])
    def test_search_is_bit_identical_to_bare_matched_filter(self, monkeypatch, budget):
        chunk = make_strain_chunk(2.0, seed=5)  # 4 000 samples: two nfft
        bank = TemplateBank(self.N_TEMPLATES)
        bare = [
            matched_filter_snr(chunk.data, bank.template(i)).tobytes()
            for i in range(len(bank))
        ]
        if budget is not None:
            monkeypatch.setattr(inspiral_mod, "_SPECTRA_BYTES", budget)
        cold, first = self.snr_series(chunk, bank)
        warm, again = self.snr_series(chunk, bank)
        assert cold == bare and warm == bare and first == again
        kept = {None: self.N_TEMPLATES, 0: 0, self.ONE_SPECTRUM: 1}[budget]
        assert len(bank._spectra) == kept
        if budget is None:
            assert {nfft for _, nfft in bank._spectra} == {8192, 16384}
        assert bank._spectra_bytes <= inspiral_mod._SPECTRA_BYTES

    def test_cached_arrays_are_read_only(self):
        bank = TemplateBank(2)
        with pytest.raises(ValueError, match="read-only"):
            bank.template(0)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bank.conj_spectrum(0, 16384)[0] = 1.0

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

    def test_strain_source_checkpoint(self):
        s1 = StrainSource(duration=1.0, inject_every=0)
        s1.process([])
        state = s1.checkpoint()
        s2 = StrainSource(duration=1.0, inject_every=0)
        s2.restore(state)
        (a,) = s1.process([])
        (b,) = s2.process([])
        np.testing.assert_array_equal(a.data, b.data)

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
