"""Tests for deploy-time RAM capping."""

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.mobility import SandboxPolicy
from repro.service import DeploymentError


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
