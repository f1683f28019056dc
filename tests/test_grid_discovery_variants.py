"""Full-stack integration with each discovery strategy."""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.core import LocalEngine
from repro.observe import jsonl_lines
from repro.p2p import (
    CentralIndexDiscovery,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from tests.test_p2p_network import overlay_connected


@pytest.mark.parametrize("strategy", ["central", "flooding", "rendezvous"])
class TestGridWithEachStrategy:
    def test_workers_discoverable(self, strategy):
        grid = ConsumerGrid(n_workers=3, seed=111, discovery=strategy)
        found = grid.discover_workers()
        assert found == ["worker-0", "worker-1", "worker-2"]

    def test_full_run_completes(self, strategy):
        grid = ConsumerGrid(n_workers=2, seed=112, discovery=strategy)
        report = grid.run(fig1_grouped(), iterations=4, probes=("Accum",))
        assert len(report.group_results) == 4
        assert len(report.probe_values["Accum"]) == 4

    def test_results_identical_across_strategies(self, strategy):
        """Discovery is a control-plane choice: payloads must not change."""
        grid = ConsumerGrid(n_workers=2, seed=113, discovery=strategy)
        report = grid.run(fig1_grouped(), iterations=3, probes=("Accum",))
        reference = LocalEngine(fig1_grouped())
        # Not comparable to a local run (farmed noise replicas differ),
        # but *between strategies* the result must be bit-identical.
        # Compare against the central-strategy baseline.
        base_grid = ConsumerGrid(n_workers=2, seed=113, discovery="central")
        base = base_grid.run(fig1_grouped(), iterations=3, probes=("Accum",))
        for a, b in zip(report.probe_values["Accum"], base.probe_values["Accum"]):
            np.testing.assert_allclose(a.data, b.data)
        del reference


class TestStrategyWiring:
    def test_strategy_classes(self):
        assert isinstance(
            ConsumerGrid(n_workers=1, seed=1, discovery="central").discovery,
            CentralIndexDiscovery,
        )
        assert isinstance(
            ConsumerGrid(n_workers=1, seed=1, discovery="flooding").discovery,
            FloodingDiscovery,
        )
        assert isinstance(
            ConsumerGrid(n_workers=1, seed=1, discovery="rendezvous").discovery,
            RendezvousDiscovery,
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ConsumerGrid(n_workers=1, discovery="gossip")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ConsumerGrid(n_workers=0)

    def test_flooding_grid_has_overlay(self):
        grid = ConsumerGrid(n_workers=6, seed=114, discovery="flooding")
        assert overlay_connected(grid.transport)

    def test_rendezvous_uses_portal(self):
        grid = ConsumerGrid(n_workers=2, seed=115, discovery="rendezvous")
        assert grid.discovery.rendezvous_ids == ["portal"]


@pytest.mark.parametrize("strategy", ["central", "rendezvous"])
@pytest.mark.parametrize("contention", [False, True], ids=["off", "on"])
def test_two_same_seed_grids_in_one_process_trace_identically(
    strategy, contention
):
    """A run is a pure function of config and seed: ids are counted per
    grid, not per process, and where the portal picks a module source
    (contended links) its ties do not depend on them."""

    def trace_of_one_run():
        grid = ConsumerGrid(
            n_workers=7, seed=5, contention=contention, discovery=strategy,
            module_chunk_bytes=65536, trace=True,
        )
        grid.run(fig1_grouped(), iterations=14)
        return jsonl_lines(grid.sim.tracer)

    assert trace_of_one_run() == trace_of_one_run()
