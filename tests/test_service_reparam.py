"""Tests for live parameter updates on deployed units (view changes)."""

import numpy as np
import pytest

from repro import ConsumerGrid, TaskGraph
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots, sph_column_density
from repro.apps.inspiral import InspiralSearch, build_inspiral_graph, make_strain_chunk
from repro.core import LocalEngine
from repro.core.toolbox import LowPass
from repro.p2p import LAN_PROFILE
from repro.service import SchedulingError


def farm_grid(seed, dataset_key, n_frames=4):
    generate_snapshots(n_frames, 150, seed=7, register_as=dataset_key)
    grid = ConsumerGrid(
        n_workers=2,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    graph = build_galaxy_graph(dataset_key, resolution=24, policy="parallel")
    return grid, graph


def exec_on_live_deployment(grid, worker, inputs):
    """One iteration sent straight to ``worker``'s single live deployment;
    returns its outputs."""
    (dep_id,) = list(grid.workers[worker].deployments)
    grid.controller.peer.send(
        worker, "group-exec", payload=(dep_id, [(99, inputs)]), size_bytes=1024,
    )
    result = {}
    original = grid.controller._on_result

    def capture(message):
        if message.payload[1] == 99:
            result["outputs"] = message.payload[2]
        original(message)

    grid.controller.peer.replace_handler("group-result", capture)
    grid.sim.run()
    return result["outputs"]


class TestReparam:
    def test_view_change_without_redeploy(self):
        """Run, flip the view on the live deployments, run again —
        the second pass renders the new perspective."""
        grid, graph = farm_grid(141, "reparam-ds-1")
        report1 = grid.run(graph, iterations=4)
        deployments_before = {
            w: set(svc.deployments) for w, svc in grid.workers.items()
        }

        # "messages are then sent to all the distributed servers".
        acks = [
            grid.controller.update_params(worker, dep_id, "Render", view="xz")
            for worker, svc in grid.workers.items()
            for dep_id in svc.deployments
        ]
        for ack in acks:
            grid.sim.run(until=ack)

        # The same deployments now hold the new view parameter.
        for w, svc in grid.workers.items():
            assert set(svc.deployments) == deployments_before[w]
            for dep in svc.deployments.values():
                assert dep.engine.units["Render"].get_param("view") == "xz"

        # Drive one iteration through a live deployment directly and check
        # it renders the xz projection of the next frame.
        frames = generate_snapshots(4, 150, seed=7)
        (image,) = exec_on_live_deployment(grid, "worker-0", [frames[0]])
        expected = sph_column_density(frames[0], resolution=24, view="xz")
        np.testing.assert_allclose(image.pixels, expected)
        del report1

    def test_bank_size_change_without_redeploy(self):
        """A live search unit told to use a larger template bank searches
        its next chunk with that bank (it used to keep its first one)."""
        grid = ConsumerGrid(n_workers=2, seed=146)
        graph = build_inspiral_graph(n_templates=4, chunk_seconds=2.0)
        grid.run(graph, iterations=4)
        acks = [
            grid.controller.update_params(worker, dep_id, "Search", n_templates=16)
            for worker, svc in grid.workers.items()
            for dep_id in svc.deployments
        ]
        for ack in acks:
            grid.sim.run(until=ack)

        chunk = make_strain_chunk(2.0, seed=3)
        (row,) = exec_on_live_deployment(grid, "worker-0", [chunk])
        (small,) = InspiralSearch(n_templates=4).process([chunk])
        (large,) = InspiralSearch(n_templates=16).process([chunk])
        assert row.rows == large.rows != small.rows

    def test_reparam_unknown_deployment_fails(self):
        grid, graph = farm_grid(142, "reparam-ds-2")
        grid.run(graph, iterations=2)
        ev = grid.controller.update_params("worker-0", "dep-bogus", "Render",
                                           view="xz")
        with pytest.raises(SchedulingError, match="no deployment"):
            grid.sim.run(until=ev)

    def test_reparam_unknown_task_fails(self):
        grid, graph = farm_grid(143, "reparam-ds-3")
        grid.run(graph, iterations=2)
        svc = grid.workers["worker-0"]
        (dep_id,) = list(svc.deployments)
        ev = grid.controller.update_params("worker-0", dep_id, "Ghost", view="xz")
        with pytest.raises(SchedulingError, match="no task"):
            grid.sim.run(until=ev)

    def test_reparam_invalid_value_fails(self):
        grid, graph = farm_grid(144, "reparam-ds-4")
        grid.run(graph, iterations=2)
        svc = grid.workers["worker-0"]
        (dep_id,) = list(svc.deployments)
        ev = grid.controller.update_params("worker-0", dep_id, "Render",
                                           resolution=-5)
        with pytest.raises(SchedulingError, match="ParameterError"):
            grid.sim.run(until=ev)

    def test_second_run_reuses_cached_modules(self):
        """Re-running after a view change costs no code re-download."""
        grid, graph = farm_grid(145, "reparam-ds-5", n_frames=8)
        grid.run(graph, iterations=4)
        bytes_after_first = {
            w: svc.cache.stats.bytes_downloaded for w, svc in grid.workers.items()
        }
        graph2 = build_galaxy_graph("reparam-ds-5", resolution=24, view="xz",
                                    policy="parallel")
        # Fresh DataReader state for the second pass.
        generate_snapshots(8, 150, seed=7, register_as="reparam-ds-5")
        grid.run(graph2, iterations=4)
        for w, svc in grid.workers.items():
            # on_demand revalidation confirms versions but code size is
            # re-counted only when versions move; here nothing moved.
            assert svc.cache.stats.refreshes == 0
            assert svc.cache.stats.hits >= 1
        del bytes_after_first


def lowpass_farm(cutoff):
    g = TaskGraph("lowpass-farm")
    g.add_task("Wave", "Wave", frequency=32.0)
    g.add_task("Filter", "LowPass", cutoff=cutoff)
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "Filter", 0)
    g.connect("Filter", 0, "Grapher", 0)
    g.group_tasks("G", ["Filter"], policy="parallel")
    return g


def test_cutoff_reparam_mid_run_filters_as_a_fresh_unit():
    """The filter keeps its stop band between frames; a new cutoff on the
    live unit must not leave the old band in place."""
    iterations, old, new = 12, 100.0, 20.0
    grid = ConsumerGrid(
        n_workers=1, seed=147, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE, worker_efficiency=1e-5,
    )
    workers = grid.discover_workers()
    done = grid.controller.run_distributed(lowpass_farm(old), iterations, workers)
    acked = []

    def reparam():
        (dep_id,) = grid.workers["worker-0"].deployments
        ack = grid.controller.update_params("worker-0", dep_id, "Filter", cutoff=new)
        ack.callbacks.append(acked.append)

    grid.sim.call_at(grid.sim.now + 4.0, reparam)
    report = grid.sim.run(until=done)
    assert acked and acked[0].ok

    local = LocalEngine(lowpass_farm(old))
    probe = local.attach_probe("Wave")
    local.run(iterations)
    cutoffs = []
    for (out,), frame in zip(report.group_results, probe.values):
        by_cutoff = {
            c: LowPass(cutoff=c).process([frame])[0].data.tobytes() for c in (old, new)
        }
        (cutoff,) = [c for c, data in by_cutoff.items() if data == out.data.tobytes()]
        cutoffs.append(cutoff)
    # Old band until the update lands, the new one from then on.
    switch = cutoffs.index(new)
    assert 0 < switch and cutoffs == [old] * switch + [new] * (iterations - switch)
