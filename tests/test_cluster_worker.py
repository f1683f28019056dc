"""Tests for the cluster (GRAM) worker."""

import numpy as np

from repro import ConsumerGrid, TaskGraph
from repro.analysis import fig1_grouped
from repro.core import LocalEngine
from repro.faults.compute import ComputeFaultModel, ComputeFaultWindow
from repro.observe import analyze
from repro.p2p import LAN_PROFILE


def slow_grid(**kw):
    defaults = dict(
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    defaults.update(kw)
    return ConsumerGrid(**defaults)


class TestClusterWorker:
    def test_cluster_worker_serves_farm(self):
        grid = slow_grid(n_workers=1, seed=56)
        grid.add_cluster_worker("cluster-0", nodes=2, cores_per_node=2,
                                profile=LAN_PROFILE, efficiency=1e-5)
        g = TaskGraph("farm")
        g.add_task("Wave", "Wave", samples=2048)
        g.add_task("FFT", "FFT")
        g.add_task("Grapher", "Grapher")
        g.connect("Wave", 0, "FFT", 0)
        g.connect("FFT", 0, "Grapher", 0)
        g.group_tasks("G", ["FFT"], policy="parallel")
        report = grid.run(g, iterations=8, workers=["cluster-0"])
        assert len(report.group_results) == 8
        cluster = grid.workers["cluster-0"]
        assert cluster.queue.stats.completed == 8
        # Jobs were billed to the grid account through the GRAM gateway.
        assert cluster.gateway.accounts.accounts["triana"].jobs == 8

    def test_cluster_concurrency_beats_single_volunteer(self):
        """A 4-slot cluster clears the same queue ~4x faster than a
        single-core volunteer at equal CPU speed."""
        def run(kind):
            grid = slow_grid(n_workers=1, seed=57)
            if kind == "cluster":
                grid.add_cluster_worker("cluster-0", nodes=2, cores_per_node=2,
                                        profile=LAN_PROFILE, efficiency=1e-5)
                workers = ["cluster-0"]
            else:
                workers = ["worker-0"]
            g = TaskGraph("farm")
            g.add_task("Wave", "Wave", samples=4096)
            g.add_task("FFT", "FFT")
            g.add_task("Grapher", "Grapher")
            g.connect("Wave", 0, "FFT", 0)
            g.connect("FFT", 0, "Grapher", 0)
            g.group_tasks("G", ["FFT"], policy="parallel")
            return grid.run(g, iterations=16, workers=workers).makespan

        volunteer = run("volunteer")
        cluster = run("cluster")
        assert cluster < 0.4 * volunteer

    def test_cluster_results_match_local(self):
        grid = slow_grid(n_workers=1, seed=58)
        grid.add_cluster_worker("cluster-0", profile=LAN_PROFILE, efficiency=1e-5)

        def build():
            g = TaskGraph("farm")
            g.add_task("Wave", "Wave", samples=512)
            g.add_task("Gain", "Gain", factor=3.0)
            g.add_task("Grapher", "Grapher")
            g.connect("Wave", 0, "Gain", 0)
            g.connect("Gain", 0, "Grapher", 0)
            g.group_tasks("G", ["Gain"], policy="parallel")
            return g

        report = grid.run(build(), iterations=4, workers=["cluster-0"])
        local = LocalEngine(build())
        probe = local.attach_probe("Gain")
        local.run(4)
        for dist, loc in zip(report.group_results, probe.values):
            np.testing.assert_allclose(dist[0].data, loc.data)


class TestClusterSharesTheCompletionTail:
    """The batch job's done-callback runs ``TrianaService._complete`` —
    the volunteer loop's own tail — so a cluster peer is not a special
    case for telemetry, the chaos layer or the analyser."""

    def run_on_cluster(self, iterations, **grid_kw):
        grid = ConsumerGrid(n_workers=1, seed=3, **grid_kw)
        cluster = grid.add_cluster_worker("cluster-0")
        model = ComputeFaultModel(
            "cluster-0", [ComputeFaultWindow("saboteur", seed=1, fraction=1.0)]
        )
        grid.transport.compute_faults["cluster-0"] = model
        grid.run(fig1_grouped(), iterations=iterations, workers=["cluster-0"])
        return grid, cluster, model

    def test_finished_iterations_leave_the_pending_set(self):
        _, cluster, _ = self.run_on_cluster(8)
        sample = cluster.telemetry_sample()
        assert sample["iterations"] == 8
        # what StarvationDetector reads to call a peer idle
        assert (sample["queued"], sample["inflight"]) == (0, 0)

    def test_planted_saboteur_tampers_on_a_cluster_peer(self):
        _, cluster, model = self.run_on_cluster(6)
        assert model.summary()["executions"] == 6
        assert model.summary()["tampered"] == {"saboteur": 6}
        assert cluster.stats.results_corrupted == 6

    def test_cluster_track_shows_its_compute(self):
        grid, _, _ = self.run_on_cluster(6, trace=True)
        execs = [
            s for s in grid.sim.tracer.spans
            if s.name == "worker.exec" and s.track == "cluster-0"
        ]
        assert sorted(s.attrs["iteration"] for s in execs) == list(range(6))
        assert all(s.finished and s.attrs["modelled_seconds"] > 0 for s in execs)
        assert analyze(grid.sim.tracer)["bottlenecks"]["seconds"]["compute"] > 0
