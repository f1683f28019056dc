"""Tests for metrics, tables and the experiment cells."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    EXPERIMENTS,
    fig1_grouped,
    parallel_efficiency,
    pipeline_graph,
    render_kv,
    render_table,
    run_batch,
    simulate_volunteer_fleet,
    spectrum_snr,
    speedup,
)
from repro.core import Spectrum
from repro.resources import PoissonChurn


def sweep(name, **factors):
    """``name``'s rows with some factors shrunk (the claims name full-size levels)."""
    exp = EXPERIMENTS.lookup(name)
    small = dataclasses.replace(
        exp, factors={**exp.factors, **factors}, claims=lambda by: []
    )
    return run_batch(small)["rows"]


class TestMetrics:
    def test_spectrum_snr_detects_line(self):
        rng = np.random.default_rng(0)
        data = np.abs(rng.normal(0, 0.1, 128))
        data[40] = 50.0
        spec = Spectrum(data=data, df=1.0)
        assert spectrum_snr(spec, signal_hz=40.0) > 100
        assert spectrum_snr(spec, signal_hz=90.0) < 5

    def test_spectrum_snr_validation(self):
        spec = Spectrum(data=np.ones(128), df=1.0)
        with pytest.raises(ValueError):
            spectrum_snr(spec, signal_hz=5000.0)
        with pytest.raises(ValueError):
            spectrum_snr(Spectrum(data=np.ones(4)), signal_hz=1.0)

    def test_speedup_and_efficiency(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")
        assert parallel_efficiency(10.0, 2.5, 4) == 1.0
        with pytest.raises(ValueError):
            speedup(-1.0, 1.0)
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 1.0, 0)


class TestTables:
    def test_render_table_aligned(self):
        out = render_table(["a", "bbbb"], [[1, 2.5], [333, 0.0001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_render_table_width_checked(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_kv(self):
        out = render_kv([("workers", 4), ("speedup", 3.97)])
        assert "workers" in out and "3.97" in out

    def test_fmt_bools_and_floats(self):
        from repro.analysis import fmt

        assert fmt(True) == "yes"
        assert fmt(1.0) == "1"
        assert fmt(0.00001) == "1e-05"


class TestWorkloads:
    def test_fig1_grouped_validates(self):
        g = fig1_grouped()
        g.validate()
        assert g.task("GroupTask").policy == "parallel"

    def test_pipeline_graph_depths(self):
        for n in (1, 3, 5):
            g = pipeline_graph(n)
            g.validate()
            assert len(g.task("Chain").graph.tasks) == n
        with pytest.raises(ValueError):
            pipeline_graph(0)


class TestExperimentRunners:
    def test_e1(self):
        (r,) = sweep("e1_workflow")
        assert r["roundtrip_stable"]
        assert r["peak_hz"] == pytest.approx(64.0)
        assert r["xml_bytes"] < 5000

    def test_e2_snr_grows(self):
        rows = sweep("e2_accumstat")
        assert len(rows) == 20
        assert rows[-1]["gain"] > 1.5
        assert rows[-1]["snr"] > rows[0]["snr"]

    def test_e5_dedicated_20_keeps_up_but_10_does_not(self):
        """The paper's sizing: 20 dedicated 2 GHz PCs suffice, fewer lag."""
        ok = simulate_volunteer_fleet(20, n_chunks=25)
        assert ok["keeps_up"]
        bad = simulate_volunteer_fleet(10, n_chunks=25)
        assert not bad["keeps_up"]
        assert bad["lag_slope"] > 0.5

    def test_e5_consumer_needs_more_peers(self):
        """"the number of PCs would need to be increased due to ...
        downtime" — 20 churned peers lag, ~30 keep up."""
        factory = lambda pid: PoissonChurn(4 * 3600.0, 2 * 3600.0)
        lagging = simulate_volunteer_fleet(
            20, n_chunks=40, availability_factory=factory
        )
        assert not lagging["keeps_up"]
        enough = simulate_volunteer_fleet(
            32, n_chunks=40, availability_factory=factory
        )
        assert enough["keeps_up"]

    def test_e5_checkpointing_reduces_waste(self):
        factory = lambda pid: PoissonChurn(2 * 3600.0, 1 * 3600.0)
        with_cp = simulate_volunteer_fleet(
            34, n_chunks=12, availability_factory=factory, checkpointing=True
        )
        without_cp = simulate_volunteer_fleet(
            34, n_chunks=12, availability_factory=factory, checkpointing=False
        )
        assert with_cp["restarts"] == 0
        assert without_cp["restarts"] > 0
        assert with_cp["mean_lag_s"] <= without_cp["mean_lag_s"]

    def test_e7_flooding_grows_but_rendezvous_constant(self):
        rows = sweep("e7_discovery", peers=(16, 64))
        by = {(row["peers"], row["strategy"]): row for row in rows}
        assert by[(64, "flooding")]["messages_per_query"] > 3 * by[(16, "flooding")][
            "messages_per_query"
        ]
        assert (
            by[(64, "rendezvous")]["messages_per_query"]
            == by[(16, "rendezvous")]["messages_per_query"]
        )
        assert by[(64, "central")]["messages_per_query"] == 2
        for row in rows:
            assert row["recall"] == pytest.approx(1.0)

    def test_e8_on_demand_never_stale(self):
        rows = sweep("e8_mobility", cache_slots=(64,))
        for row in rows:
            if row["policy"] == "on_demand":
                assert row["stale_executions"] == 0
        sticky_large = [
            row
            for row in rows
            if row["policy"] == "sticky" and row["cache_slots"] == 64
        ][0]
        assert sticky_large["stale_executions"] > 0
        # Sticky saves traffic — the trade the paper's design rejects.
        on_demand_large = [
            row
            for row in rows
            if row["policy"] == "on_demand" and row["cache_slots"] == 64
        ][0]
        assert sticky_large["bytes_downloaded"] < on_demand_large["bytes_downloaded"]

    def test_e9_harvest_tracks_idle_fraction(self):
        (row,) = sweep("e9_volunteer", volunteers=(60,))
        assert row["harvest_fraction"] == pytest.approx(0.6, abs=0.12)
        (admin,) = sweep("e9_admin", users=(60,))
        assert admin["globus_admin_operations"] == 60
        assert admin["virtual_admin_operations"] == 1
