"""Chaos e2e: the farmed case studies survive a moderate fault storm.

Case 1 (galaxy) and Case 2 (inspiral) each run twice on identically-
seeded grids — once fault-free, once under ``chaos("moderate")`` (two
crashes, a partition, corruption/duplication/reordering windows, one
straggler) — and must produce *bit-identical* results, because every
fault either heals (partition, restart) or is absorbed by a detection
layer (checksums discard corrupt frames, dedup absorbs duplicates,
redispatch re-runs lost iterations).
"""

import numpy as np

from repro import ConsumerGrid, chaos
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.apps.inspiral import build_inspiral_graph
from repro.p2p import LAN_PROFILE

WORKERS = [f"worker-{i}" for i in range(6)]


def make_grid(seed, plan=None, efficiency=1e-5):
    return ConsumerGrid(
        n_workers=6,
        seed=seed,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=efficiency,
        heartbeat_interval=1.0,
        suspect_after_missed=2,
        retry_timeout=30.0,
        retry_interval=2.0,
        fault_plan=plan,
    )


def moderate_plan():
    # start=5.0 sits past discovery+deploy; horizon=40 spans the whole run.
    return chaos("moderate", seed=5, workers=WORKERS, start=5.0, horizon=40.0)


def run_pair(build_graph, iterations, efficiency, seed):
    """Run the same graph fault-free and under chaos; return both reports."""
    clean = make_grid(seed, efficiency=efficiency).run(
        build_graph(), iterations=iterations, run_until=100_000
    )
    chaotic = make_grid(seed, plan=moderate_plan(), efficiency=efficiency).run(
        build_graph(), iterations=iterations, run_until=100_000
    )
    return clean, chaotic


def assert_chaos_was_real(clean, chaotic):
    """The storm must actually have hit: faults fired, recovery engaged."""
    rec = chaotic.recovery
    assert rec["faults"]["injected"] >= 5
    assert rec["redispatches"] >= 1
    assert rec["suspected"]  # at least one worker went silent
    assert rec["heartbeats"] > 0
    assert chaotic.messages_corrupted > 0
    assert chaotic.messages_duplicated > 0
    assert chaotic.messages_reordered > 0
    assert chaotic.makespan > clean.makespan  # recovery isn't free
    # The fault-free baseline saw none of this.  (Timeout redispatches can
    # fire in a clean run — queued iterations age from dispatch time — but
    # no healthy worker ever goes silent long enough to be suspected.)
    assert clean.messages_corrupted == 0
    assert clean.recovery["suspected"] == {}
    assert clean.recovery["suspicion_redispatches"] == 0


class TestGalaxyUnderChaos:
    def test_galaxy_results_identical_under_chaos(self):
        generate_snapshots(
            n_frames=12, n_particles=300, seed=3, register_as="chaos-gal"
        )
        clean, chaotic = run_pair(
            lambda: build_galaxy_graph("chaos-gal", resolution=16),
            iterations=12, efficiency=1e-5, seed=900,
        )
        assert len(chaotic.group_results) == 12
        for a, b in zip(clean.group_results, chaotic.group_results):
            np.testing.assert_allclose(a[0].pixels, b[0].pixels)
        assert_chaos_was_real(clean, chaotic)


class TestInspiralUnderChaos:
    def test_inspiral_detections_identical_under_chaos(self):
        clean, chaotic = run_pair(
            lambda: build_inspiral_graph(
                n_templates=8, chunk_seconds=4.0, seed=4
            ),
            iterations=10, efficiency=5e-3, seed=901,
        )
        assert len(chaotic.group_results) == 10
        for a, b in zip(clean.group_results, chaotic.group_results):
            assert a[0].rows == b[0].rows  # same matches, same SNRs
        assert_chaos_was_real(clean, chaotic)
