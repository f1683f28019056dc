"""Tests for introspection helpers and deploy-time RAM capping."""

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_graph, fig1_grouped
from repro.core import RegistryError, describe_unit, graph_to_dot
from repro.mobility import SandboxPolicy
from repro.service import DeploymentError


class TestDescribeUnit:
    def test_palette_entry_fields(self):
        d = describe_unit("Wave")
        assert d["name"] == "Wave"
        assert d["category"] == "signal"
        assert d["outputs"] == [["SampleSet"]]
        assert d["inputs"] == []
        param_names = [p["name"] for p in d["parameters"]]
        assert "frequency" in param_names and "waveform" in param_names
        assert d["doc"].startswith("Periodic waveform")

    def test_permissions_surface(self):
        d = describe_unit("DataReader")
        assert d["permissions"] == ["fs.read"]

    def test_multi_node_unit(self):
        d = describe_unit("Mixer")
        assert len(d["inputs"]) == 2

    def test_unknown_unit(self):
        with pytest.raises(RegistryError):
            describe_unit("Nonexistent")

    def test_every_registered_unit_describable(self):
        from repro.core import global_registry

        for desc in global_registry():
            entry = describe_unit(desc.name)
            assert entry["version"] == desc.version


class TestGraphToDot:
    def test_plain_graph_nodes_and_edges(self):
        dot = graph_to_dot(fig1_graph())
        assert dot.startswith('digraph "fig1"')
        for name in ("Wave", "Gaussian", "FFT", "Power", "Accum", "Grapher"):
            assert f'"{name}"' in dot
        assert '"Wave" -> "Gaussian"' in dot
        assert dot.rstrip().endswith("}")

    def test_group_becomes_cluster(self):
        dot = graph_to_dot(fig1_grouped())
        assert "subgraph" in dot and "cluster_GroupTask" in dot
        assert "GroupTask [parallel]" in dot
        # Boundary edges route into the cluster's inner tasks.
        assert '"Wave" -> "GroupTask/Gaussian"' in dot
        assert '"GroupTask/FFT" -> "Power"' in dot

    def test_nonzero_node_edge_labelled(self):
        from repro.core import TaskGraph

        g = TaskGraph("mix")
        g.add_task("A", "Wave")
        g.add_task("B", "Wave")
        g.add_task("M", "Mixer")
        g.connect("A", 0, "M", 0)
        g.connect("B", 0, "M", 1)
        dot = graph_to_dot(g)
        assert 'label="0:1"' in dot


class TestDeployRamCap:
    def test_small_device_rejects_large_deployment(self):
        grid = ConsumerGrid(
            n_workers=2,
            seed=121,
            sandbox=SandboxPolicy(max_module_ram=1_000_000),
        )
        done = grid.controller.run_distributed(
            fig1_grouped(), 2, grid.discover_workers(), ()
        )
        with pytest.raises(DeploymentError, match="RAM"):
            grid.sim.run(until=done)

    def test_roomy_device_accepts(self):
        grid = ConsumerGrid(
            n_workers=2,
            seed=122,
            sandbox=SandboxPolicy(max_module_ram=256_000_000),
        )
        report = grid.run(fig1_grouped(), iterations=2)
        assert len(report.group_results) == 2
