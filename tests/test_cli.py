"""Tests for the command-line interface."""

import pytest

from repro.analysis import fig1_grouped
from repro.cli import main
from repro.core import graph_to_string
from tests.test_core_xml import MALFORMED

VERBS = ["units", "policies", "transports", "faults", "validate", "run",
         "top", "analyze", "sweep"]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.xml"
    path.write_text(graph_to_string(fig1_grouped()))
    return str(path)


def usage_error(argv) -> None:
    """``argv`` is refused by the parser: exit 2, nothing run."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


class TestSurface:
    def test_help_lists_exactly_the_nine_verbs(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        listed = out[out.index("{") + 1: out.index("}")]
        assert listed.split(",") == VERBS

    def test_convert_is_gone(self, graph_file, capsys):
        usage_error(["convert", graph_file, "--to", "native"])
        assert "invalid choice: 'convert'" in capsys.readouterr().err

    def test_from_format_is_gone(self, graph_file, capsys):
        usage_error(["run", graph_file, "--from-format", "wsfl"])
        assert "--from-format" in capsys.readouterr().err

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_bad_verification_is_a_usage_error(
        self, graph_file, transport, monkeypatch, capsys
    ):
        # Refused while parsing: no fabric is built and, on tcp, no
        # worker process is spawned for a run that cannot start.
        import repro.deployment
        import repro.grid

        def started(*args, **kwargs):
            raise AssertionError("a run started on a bad --verification")

        monkeypatch.setattr(repro.grid, "ConsumerGrid", started)
        monkeypatch.setattr(repro.deployment, "run_tcp_localhost", started)
        for spec in ("bogus", "replicate-1", "spot-2"):
            usage_error(["run", graph_file, "--workers", "2",
                         "--transport", transport, "--verification", spec])
            err = capsys.readouterr().err
            assert "argument --verification" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--transport", "tcp"],
        ["--verification", "replicate-3"],
        ["--dispatch", "weighted"],
        ["--trace-out", "t.json"],
        ["--metrics-out", "m.json"],
        ["--telemetry-out", "t.jsonl"],
        ["--transport", "tcp", "--verification", "replicate-3",
         "--dispatch", "weighted"],
    ], ids=lambda flags: "+".join(flag.lstrip("-") for flag in flags[::2]))
    def test_grid_only_flag_without_a_grid_is_error_1(
        self, graph_file, flags, capsys
    ):
        assert main(["run", graph_file, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for flag in flags[::2]:
            assert flag in err

    @pytest.mark.parametrize("argv,flag", [
        (["units", "--category", "nosuch"], "--category"),
        (["units", "--category", "generators"], "--category"),
        (["units", "--category", "statistics"], "--category"),
        (["units", "--category", "conversion"], "--category"),
        (["units", "--category", "text"], "--category"),
        (["units", "--category", "math"], "--category"),
        (["faults", "--level", "nosuch"], "--level"),
        (["faults", "--level", "hostile", "--workers", "0"], "--workers"),
        (["faults", "--level", "hostile", "--workers", "-2"], "--workers"),
    ], ids=["unknown-category", "deleted-category", "deleted-statistics",
            "deleted-conversion", "deleted-text", "deleted-math", "unknown-level",
            "no-workers", "negative-workers"])
    def test_bad_listing_argument_is_a_usage_error(self, argv, flag, capsys):
        usage_error(argv)
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_validate_unknown_root_is_error_1(self, tmp_path, capsys):
        mystery = tmp_path / "mystery.xml"
        mystery.write_text("<mystery/>")
        assert main(["validate", str(mystery)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_validate_malformed_graph_is_error_1(self, case, tmp_path, capsys):
        text, names = MALFORMED[case]
        path = tmp_path / "bad.xml"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err
        assert "Traceback" not in err


class TestCommands:
    def test_units_listing(self, capsys):
        assert main(["units", "--category", "signal"]) == 0
        out = capsys.readouterr().out
        assert "Wave" in out and "AccumStat" in out

    def test_units_search(self, capsys):
        assert main(["units", "--search", "fft"]) == 0
        out = capsys.readouterr().out
        assert "FFT" in out and "Wave" not in out.split("units registered")[1]

    def test_policies_listing(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("parallel", "p2p", "chunked"):
            assert name in out
        assert "ParallelFarmPolicy" in out
        assert "round_robin" in out and "weighted" in out

    def test_transports_listing(self, capsys):
        assert main(["transports"]) == 0
        out = capsys.readouterr().out
        rows = {r[0]: r[1] for r in map(str.split, out.splitlines()) if len(r) > 1}
        assert rows["sim"] == "SimNetwork" and rows["tcp"] == "TcpTransport"
        assert "bit-identical" in out  # the sim summary line
        assert "--transport" in out  # the selection hint

    def test_run_rejects_observability_on_tcp(self, graph_file, capsys):
        assert main(
            ["run", graph_file, "--workers", "2",
             "--transport", "tcp", "--trace-out", "t.json"]
        ) == 1
        assert "sim transport" in capsys.readouterr().err

    def test_validate(self, graph_file, capsys):
        assert main(["validate", graph_file]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "GroupTask(parallel)" in out

    def test_run_local(self, graph_file, capsys):
        assert main(["run", graph_file, "-n", "5", "--probe", "Accum"]) == 0
        out = capsys.readouterr().out
        assert "local engine" in out
        assert "probe" in out and "5 values" in out

    def test_run_on_grid(self, graph_file, capsys):
        assert main(["run", graph_file, "-n", "4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "simulated grid" in out
        assert "makespan" in out

    def test_grid_probe_refused_by_its_zone_is_error_1(self, graph_file, capsys):
        # The sink exists but has no output: the zone's own refusal is
        # the message, as on the local engine.
        assert main(["run", graph_file, "-n", "4", "--workers", "2",
                     "--probe", "Grapher"]) == 1
        assert capsys.readouterr().err.strip() == "error: 'Grapher' has no output node 0"

    def test_grid_probe_in_no_zone_is_error_1(self, graph_file, capsys):
        assert main(["run", graph_file, "-n", "4", "--workers", "2",
                     "--probe", "Nope"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: probe target 'Nope' not found in any zone"

    def test_run_on_grid_weighted_dispatch(self, graph_file, capsys):
        assert main([
            "run", graph_file, "-n", "4", "--workers", "2",
            "--dispatch", "weighted",
        ]) == 0

    def test_missing_file_is_error_2(self, capsys):
        assert main(["run", "/no/such/file.xml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_graph_is_error_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text('<taskgraph name="x"><task name="a" unit="Nope"/></taskgraph>')
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_metrics_out_writes_json(self, graph_file, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main([
            "run", graph_file, "-n", "4", "--workers", "2",
            "--metrics-out", str(metrics),
        ]) == 0
        assert "metrics written to" in capsys.readouterr().out
        row = json.loads(metrics.read_text())
        assert row["sim"]["events"] > 0 and row["net"]["sent"] > 0
        assert sorted(row["workers"]) == ["worker-0", "worker-1"]

    def test_metrics_out_needs_grid(self, graph_file, tmp_path, capsys):
        assert main([
            "run", graph_file, "--metrics-out", str(tmp_path / "m.json"),
        ]) == 1
        assert "--metrics-out" in capsys.readouterr().err

    def test_trace_and_metrics_together(self, graph_file, tmp_path):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", graph_file, "-n", "4", "--workers", "2",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        assert trace.exists() and metrics.exists()


class TestAnalyzeCommand:
    @pytest.fixture
    def trace_file(self, graph_file, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main([
            "run", graph_file, "-n", "4", "--workers", "2",
            "--trace-out", str(path),
        ]) == 0
        return str(path)

    def test_doctor_report(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out.lower()
        assert "bottleneck" in out.lower()

    def test_json_output(self, trace_file, capsys):
        import json

        assert main(["analyze", trace_file, "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert set(bundle) >= {"critical_path", "utilization", "bottlenecks"}

    def test_self_diff_passes_gate(self, trace_file, capsys):
        assert main([
            "analyze", trace_file, "--diff", trace_file,
            "--fail-on-regression",
        ]) == 0
        assert "diff" in capsys.readouterr().out.lower()

    def test_missing_trace_is_error_2(self, capsys):
        assert main(["analyze", "/no/such/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err
