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

    def test_a_refusal_ends_its_ask_at_the_first_ack(self):
        """Asking again cannot lift a RAM cap: each worker refuses once, and
        the run fails one round trip after the module fetch (t=1.67), not
        after three asks (t=4.70)."""
        grid = ConsumerGrid(
            n_workers=2,
            seed=121,
            sandbox=SandboxPolicy(max_module_ram=1_000_000),
        )
        done = grid.controller.run_distributed(
            fig1_grouped(), 2, grid.discover_workers(), ()
        )
        with pytest.raises(DeploymentError, match="refused at .*RAM"):
            grid.sim.run(until=done)
        assert [w.stats.deploy_failures for w in grid.workers.values()] == [1, 1]
        assert grid.sim.now < 2.0
        assert grid.controller.deployer._ack_events == {}

    def test_roomy_device_accepts(self):
        grid = ConsumerGrid(
            n_workers=2,
            seed=122,
            sandbox=SandboxPolicy(max_module_ram=256_000_000),
        )
        report = grid.run(fig1_grouped(), iterations=2)
        assert len(report.group_results) == 2
