"""The run table: its shape, its gate, its determinism and its passivity.

The committed ``benchmarks/results/BENCH_<name>.json`` files are a pure
function of the code, so tier-1 re-runs every experiment (all but the
two that take over a second, E11 and E16 — CI's full ``repro sweep
--check`` covers those) and compares every field.
"""

import dataclasses
import functools
import inspect
import itertools
import json
import re
from pathlib import Path

import pytest

from repro import NullTracer, Tracer
from repro.analysis import (
    EXPERIMENTS,
    REL_TOL,
    Experiment,
    diff,
    result_path,
    run_batch,
)
from repro.analysis.experiments import e13_grid, e13_run
from repro.cli import main

REPO = Path(__file__).parent.parent
RESULTS = REPO / "benchmarks" / "results"
NAMES = [exp.name for exp in EXPERIMENTS]
OVER_A_SECOND = {"e11_network", "e16_swarm"}
FAST = [name for name in NAMES if name not in OVER_A_SECOND]
#: under 50 ms a sweep: a second run of all of them costs the suite 0.2 s
QUICK = [
    "e1_workflow", "e2_accumstat", "e6_database", "e9_volunteer", "e9_admin",
    "e10_granularity", "e12_checkpoint", "e13_dispatch", "e14_split",
]


@functools.cache
def payload(name):
    """One full run of ``name`` per test session, shared by the tests below."""
    return run_batch(EXPERIMENTS.lookup(name))


@functools.cache
def committed(name):
    return json.loads(result_path(RESULTS, name).read_text())


class TestTableShape:
    def test_registered_under_their_own_names(self):
        assert NAMES == [EXPERIMENTS.lookup(name).name for name in NAMES]
        assert len(set(NAMES)) == len(NAMES) == 21

    def test_columns_and_factors_are_row_keys(self):
        for exp in EXPERIMENTS:
            stored = committed(exp.name)
            assert set(exp.columns) | set(exp.factors) <= set(stored["rows"][0]), exp.name
            assert stored["factors"] == {k: list(v) for k, v in exp.factors.items()}

    def test_factors_are_the_cell_parameters(self):
        for exp in EXPERIMENTS:
            parameters = list(inspect.signature(exp.cell).parameters)
            assert parameters == ["tracer", *exp.factors], exp.name

    def test_one_committed_file_per_experiment(self):
        on_disk = sorted(p.stem[len("BENCH_"):] for p in RESULTS.glob("BENCH_*.json"))
        assert on_disk == sorted(NAMES)

    def test_experiments_md_names_every_experiment_and_no_other(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        mentioned = set(re.findall(r"repro sweep (e\d+_\w+)", text))
        assert mentioned == set(NAMES)

    def test_no_field_without_a_user(self):
        for field in dataclasses.fields(Experiment):
            if field.default is not dataclasses.MISSING:
                assert any(
                    getattr(exp, field.name) != field.default for exp in EXPERIMENTS
                ), field.name


class TestCommittedResults:
    @pytest.mark.parametrize("name", FAST)
    def test_fresh_run_matches_committed_file(self, name):
        assert diff(payload(name), committed(name)) == []

    def test_every_claim_holds(self):
        for name in NAMES:
            claims = committed(name)["claims"]
            assert claims and all(claim["holds"] for claim in claims), name

    def test_stack_running_cells_carry_trace_columns(self):
        untraced = {
            "e1_workflow", "e2_accumstat", "e5_inspiral", "e9_volunteer",
            "e9_admin", "e12_checkpoint", "e14_split", "e16_swarm",
        }
        for name in NAMES:
            rows = committed(name)["rows"]
            assert all((row["trace"] is None) == (name in untraced) for row in rows), name

    @pytest.mark.parametrize("name", QUICK)
    def test_second_run_is_byte_identical(self, name):
        again = run_batch(EXPERIMENTS.lookup(name))
        assert json.dumps(again, sort_keys=True) == json.dumps(
            payload(name), sort_keys=True
        )


def row_at(doc, levels):
    """The row of payload ``doc`` at these factor levels."""
    return next(
        row for row in doc["rows"]
        if all(row[factor] == level for factor, level in levels.items())
    )


def traced_cells():
    """(experiment, levels) for every cell that carries trace columns.

    Not E11's eight: 1.4 s a sweep, and CI's ``--check`` pins their values.
    """
    for name in FAST:
        factors = EXPERIMENTS.lookup(name).factors
        for levels in itertools.product(*factors.values()):
            levels = dict(zip(factors, levels))
            if row_at(committed(name), levels)["trace"] is not None:
                yield pytest.param(name, levels, id=f"{name}-{list(levels.values())}")


class TestPassivity:
    """Observability off, traced and telemetered: exactly the same numbers."""

    #: read off the tracer itself, so a null tracer leaves them at 0
    FROM_THE_TRACE = {"e18_moddist": {"fetch_wait_s", "fetch_wait_2dp"}}

    @pytest.mark.parametrize("name, levels", traced_cells())
    def test_null_tracer_gives_the_same_row(self, name, levels):
        bare = EXPERIMENTS.lookup(name).cell(NullTracer(), **levels)
        for key in self.FROM_THE_TRACE.get(name, ()):
            assert bare.pop(key) == 0
        traced = row_at(payload(name), levels)
        assert traced["trace"] is not None
        # (the traced row also has the derived columns, which need the other rows)
        assert bare == {key: traced[key] for key in bare}  # exact, not approx

    @pytest.mark.parametrize("dispatch", ["round_robin", "weighted"])
    def test_e13_bare_traced_and_telemetered_agree(self, dispatch):
        bare = e13_run(e13_grid(), dispatch).makespan
        assert e13_run(e13_grid(Tracer()), dispatch).makespan == bare
        telemetered = e13_grid()
        telemetered.enable_telemetry(interval=1.0)
        report = e13_run(telemetered, dispatch)
        assert report.health["sampler"]["samples"] > 0
        assert report.makespan == bare
        stored = row_at(committed("e13_dispatch"), {"dispatch": dispatch})["makespan_s"]
        assert bare == pytest.approx(stored, rel=REL_TOL, abs=0.0)


class TestDiff:
    def test_equal_payloads(self):
        doc = {"rows": [{"a": 1, "b": 2.5, "c": None, "d": "x", "e": True}]}
        assert diff(doc, json.loads(json.dumps(doc))) == []

    def test_float_inside_and_outside_the_tolerance(self):
        assert diff({"x": 1.0}, {"x": 1.0 + REL_TOL / 10}) == []
        assert diff({"x": 1.0}, {"x": 1.0 + REL_TOL * 10}) == [
            f"x: 1.0 != committed {1.0 + REL_TOL * 10!r}"
        ]
        assert diff({"x": 0.0}, {"x": 1e-300}) != []  # relative, so no slack at zero

    def test_int_mismatch_is_exact(self):
        assert diff({"rows": [{"n": 10**12}]}, {"rows": [{"n": 10**12 + 1}]}) == [
            f"rows[0].n: {10**12} != committed {10**12 + 1}"
        ]

    def test_missing_and_extra_keys(self):
        assert diff({"a": 1}, {"a": 1, "b": 2}) == ["b: missing from the fresh run"]
        assert diff({"a": 1, "b": 2}, {"a": 1}) == ["b: not in the committed file"]

    def test_row_count_change(self):
        assert diff({"rows": [1, 2]}, {"rows": [1, 2, 3]}) == [
            "rows: 2 entries, committed has 3"
        ]

    def test_bool_and_int_are_not_conflated(self):
        assert diff({"ok": True}, {"ok": 1}) == ["ok: True != committed 1"]
        assert diff({"n": 0}, {"n": False}) != []
        assert diff({"x": 1}, {"x": 1.0}) != []


class TestSweepCommand:
    def test_check_passes_on_the_committed_file(self, capsys):
        assert main(["sweep", "e4_galaxy", "--check", "--out", str(RESULTS)]) == 0
        out = capsys.readouterr().out
        assert "E4  galaxy render farm" in out and "[ok]" in out

    def test_check_names_the_perturbed_field(self, tmp_path, capsys):
        doc = committed("e4_galaxy")
        doc["rows"][3]["makespan_s"] *= 1.0 + 1e-6
        result_path(tmp_path, "e4_galaxy").write_text(json.dumps(doc))
        assert main(["sweep", "e4_galaxy", "--check", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "rows[3].makespan_s" in err
        assert err.count("FAIL") == 1  # that field and no other

    def test_writes_the_file_it_checks(self, tmp_path, capsys):
        assert main(["sweep", "e14_split", "--out", str(tmp_path)]) == 0
        assert result_path(tmp_path, "e14_split").read_text() == result_path(
            RESULTS, "e14_split"
        ).read_text()

    def test_failing_claim_exits_1(self, tmp_path, capsys):
        broken = dataclasses.replace(
            EXPERIMENTS.lookup("e14_split"), name="e99_broken",
            claims=lambda by: [("water flows uphill", False)],
        )
        EXPERIMENTS.add(broken.name, broken)
        try:
            assert main(["sweep", "e99_broken", "--out", str(tmp_path)]) == 1
        finally:
            EXPERIMENTS._entries.pop(broken.name)
        assert "claim does not hold: water flows uphill" in capsys.readouterr().err

    def test_unknown_name_lists_the_valid_ones(self, capsys):
        assert main(["sweep", "e0_nothing"]) == 1
        err = capsys.readouterr().err
        assert "unknown experiment 'e0_nothing'" in err and "e4_galaxy" in err

    def test_help_shows_exactly_the_three_settables(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: repro sweep [-h] [--check] [--out DIR] [NAME ...]"
