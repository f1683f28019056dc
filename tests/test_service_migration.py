"""Tests for chain-stage migration and the cluster (GRAM) worker."""

import numpy as np
import pytest

from repro import ConsumerGrid, TaskGraph
from repro.analysis import fig1_grouped
from repro.core import LocalEngine
from repro.faults.compute import ComputeFaultModel, ComputeFaultWindow
from repro.observe import analyze
from repro.p2p import LAN_PROFILE
from repro.service import MigrationError


def stateful_chain_graph():
    """Wave → FFT → [Power → Accum]@p2p → Grapher (Accum is stateful)."""
    g = TaskGraph("stateful-chain")
    g.add_task("Wave", "Wave", frequency=64.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Accum", "AccumStat")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "FFT"), ("FFT", "Power"), ("Power", "Accum"),
                 ("Accum", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("Chain", ["Power", "Accum"], policy="p2p")
    return g


def slow_grid(**kw):
    defaults = dict(
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    defaults.update(kw)
    return ConsumerGrid(**defaults)


class TestChainMigration:
    def test_migrate_stateful_stage_mid_run(self):
        """Move the AccumStat stage to a fresh peer mid-run; the running
        average must be continuous (state travelled with the work)."""
        grid = slow_grid(n_workers=3, seed=51)
        iterations = 12
        workers = grid.discover_workers()
        # Chain stages land on worker-0 (Power) and worker-1 (Accum).
        done = grid.controller.run_distributed(
            stateful_chain_graph(), iterations, workers[:2]
        )

        migrated = {}

        def launch_migration():
            ev = grid.controller.migrate_stage(1, "worker-2", settle=0.05)
            ev.callbacks.append(lambda e: migrated.update(dep=e.value))

        # Stage iterations take ~0.01-0.03 s; migrate while work is in flight.
        grid.sim.call_at(0.05, launch_migration)
        report = grid.sim.run(until=done)
        grid.sim.run()  # drain any migration steps that outlived the run
        assert len(report.group_results) == iterations
        assert "dep" in migrated

        # The migrated AccumStat lives on worker-2 with the FULL count.
        accum_units = [
            (w, dep.engine.units["Accum"])
            for w, svc in grid.workers.items()
            for dep in svc.deployments.values()
            if "Accum" in dep.engine.units
        ]
        live = [(w, u) for w, u in accum_units if w == "worker-2"]
        assert len(live) == 1
        assert live[0][1].count == iterations
        # The old home no longer hosts the deployment.
        assert all(
            "Accum" not in dep.engine.units
            for dep in grid.workers["worker-1"].deployments.values()
        )

    def test_migrated_results_match_unmigrated_run(self):
        iterations = 10

        def run(migrate: bool):
            grid = slow_grid(n_workers=3, seed=52)
            workers = grid.discover_workers()
            done = grid.controller.run_distributed(
                stateful_chain_graph(), iterations, workers[:2]
            )
            if migrate:
                grid.sim.call_at(
                    0.05, lambda: grid.controller.migrate_stage(1, "worker-2", settle=0.05)
                )
            report = grid.sim.run(until=done)
            return [out[0].data for out in report.group_results]

        plain = run(migrate=False)
        moved = run(migrate=True)
        for a, b in zip(plain, moved):
            np.testing.assert_allclose(a, b)

    def test_straggler_forwarding_via_tombstone(self):
        """Messages addressed to the old deployment after migration are
        forwarded to the new home rather than dropped."""
        grid = slow_grid(n_workers=3, seed=53)
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(
            stateful_chain_graph(), 8, workers[:2]
        )
        grid.sim.call_at(
            0.04, lambda: grid.controller.migrate_stage(1, "worker-2", settle=0.01)
        )
        report = grid.sim.run(until=done)
        assert len(report.group_results) == 8

    def test_telemetry_counts_a_paused_backlog_as_queued(self):
        """While the new home waits for the drained state, the iterations
        it buffers are queued work, not work in an engine."""
        grid = slow_grid(n_workers=3, seed=51)
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(
            stateful_chain_graph(), 12, workers[:2]
        )
        new_home = grid.workers["worker-2"]
        samples = []

        def sample():
            deps = list(new_home.deployments.values())
            if any(d.paused for d in deps):
                backlog = sum(len(d.backlog) for d in deps)
                samples.append((new_home.telemetry_sample(), backlog, len(deps)))
            if not done.processed:
                grid.sim.call_at(grid.sim.now + 0.002, sample)

        grid.sim.call_at(
            0.05, lambda: grid.controller.migrate_stage(1, "worker-2", settle=0.05)
        )
        grid.sim.call_at(0.05, sample)
        grid.sim.run(until=done)
        assert max(backlog for _, backlog, _ in samples) > 0
        for row, backlog, n_deps in samples:
            assert row["queued"] == backlog
            assert row["inflight"] <= n_deps

    def test_migrate_without_chain_rejected(self):
        grid = slow_grid(n_workers=2, seed=54)
        with pytest.raises(MigrationError):
            grid.controller.migrate_stage(0, "worker-1")

    def test_migrate_bad_stage_index(self):
        grid = slow_grid(n_workers=2, seed=55)
        workers = grid.discover_workers()
        done = grid.controller.run_distributed(
            stateful_chain_graph(), 3, workers
        )
        grid.sim.run(until=done)
        with pytest.raises(MigrationError):
            grid.controller.migrate_stage(7, "worker-0")


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
