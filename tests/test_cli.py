"""Tests for the command-line interface."""

import pytest

from repro.analysis import fig1_grouped
from repro.cli import FORMATS, load_graph_text, main, sniff_format
from repro.core import graph_to_petrinet, graph_to_string, graph_to_wsfl


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.xml"
    path.write_text(graph_to_string(fig1_grouped()))
    return str(path)


class TestSniffing:
    def test_sniff_all_formats(self):
        g = fig1_grouped()
        assert sniff_format(graph_to_string(g)) == "native"
        assert sniff_format(graph_to_wsfl(g)) == "wsfl"
        assert sniff_format(graph_to_petrinet(g)) == "petrinet"

    def test_sniff_unknown(self):
        from repro.core import SerializationError

        with pytest.raises(SerializationError):
            sniff_format("<mystery/>")

    def test_load_auto_round_trips(self):
        g = fig1_grouped()
        for writer in (graph_to_string, graph_to_wsfl, graph_to_petrinet):
            g2 = load_graph_text(writer(g))
            assert sorted(g2.tasks) == sorted(g.tasks)

    def test_load_bad_format_name(self):
        from repro.core import SerializationError

        with pytest.raises(SerializationError):
            load_graph_text("<taskgraph/>", fmt="yaml")


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

    def test_convert_to_wsfl_and_back(self, graph_file, capsys, tmp_path):
        assert main(["convert", graph_file, "--to", "wsfl"]) == 0
        wsfl_text = capsys.readouterr().out
        assert "flowModel" in wsfl_text
        wsfl_path = tmp_path / "fig1.wsfl"
        wsfl_path.write_text(wsfl_text)
        assert main(["convert", str(wsfl_path), "--to", "petrinet"]) == 0
        assert "<net" in capsys.readouterr().out

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

    def test_formats_constant(self):
        assert FORMATS == ("native", "wsfl", "petrinet")


class TestObservabilityFlags:
    def test_metrics_out_writes_json(self, graph_file, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main([
            "run", graph_file, "-n", "4", "--workers", "2",
            "--metrics-out", str(metrics),
        ]) == 0
        assert "metrics written to" in capsys.readouterr().out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["sim.events_executed"]["value"] > 0

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
