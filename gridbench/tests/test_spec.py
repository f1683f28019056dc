"""BENCHMARK.json: the contract's schema and its agreement with the code."""

import json
import re

from gridbench import ROOT
from gridbench.cli import RUN_SECONDS
from gridbench.metrics import END_TO_END, EXACT, benchmark_spec, per_layer_metrics
from gridbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_what_the_metric_table_generates():
    spec = benchmark_spec([(n, c.why) for n, c in WORKLOADS.items()], RUN_SECONDS)
    assert load() == spec


def test_top_level_shape():
    spec = load()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["gridbench"]
    assert len(spec["command"]) <= 32
    assert not any(part.startswith("/") or ".." in part for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads():
    spec = load()
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_metrics_have_unit_direction_clock_and_bound():
    spec = load()
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    # the clock lives in the catalogue (BENCHMARK.json has no field for it)
    for m in (*END_TO_END, *EXACT, *per_layer_metrics()):
        assert m.clock in ("host", "sim", "count"), m.name
        assert m.doc
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
