"""Tests for the galaxy-formation scenario (Case 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.galaxy as galaxy_mod
from repro.apps.galaxy import (
    ColumnDensity,
    DataReader,
    FrameCollector,
    build_galaxy_graph,
    generate_snapshots,
    register_dataset,
    sph_column_density,
)
from repro.core import LocalEngine, ParameterError, ParticleSnapshot, UnitError


def scatter_both(xs, ys, masses, smoothing, resolution, extent):
    """(reference loop image, vectorized image) of the same particles."""
    cell = 2 * extent / resolution
    grids = []
    for scatter in (galaxy_mod._scatter_loop, galaxy_mod._scatter_vectorized):
        grid = np.zeros((resolution, resolution))
        scatter(xs, ys, masses, smoothing, grid, resolution, cell, extent)
        grids.append(grid)
    return grids


# One particle: on the grid, off it, straddling an edge (coordinates in
# units of the half-width ``extent``), or flung far away; a smoothing
# length from far below a cell to larger than the whole grid.
particle = st.tuples(
    st.one_of(st.floats(-1.6, 1.6), st.sampled_from([-1.0, 1.0, 0.0, 1e30, -1e30])),
    st.one_of(st.floats(-1.6, 1.6), st.sampled_from([-1.0, 1.0, 0.0, 1e30, -1e30])),
    st.floats(0.01, 3.0),
    st.one_of(st.floats(0.0, 0.6), st.sampled_from([0.0, 1e-9, 1.0, 2.5])),
)


class TestSnapshots:
    def test_shapes_and_count(self):
        frames = generate_snapshots(n_frames=5, n_particles=300, seed=1)
        assert len(frames) == 5
        for f in frames:
            assert len(f) == 300
            assert f.positions.shape == (300, 3)

    def test_deterministic(self):
        a = generate_snapshots(n_frames=3, n_particles=100, seed=7)
        b = generate_snapshots(n_frames=3, n_particles=100, seed=7)
        np.testing.assert_array_equal(a[2].positions, b[2].positions)

    def test_collapse_over_time(self):
        frames = generate_snapshots(n_frames=8, n_particles=500, seed=2)
        r_first = np.linalg.norm(frames[0].positions[:, :2], axis=1).mean()
        r_last = np.linalg.norm(frames[-1].positions[:, :2], axis=1).mean()
        assert r_last < r_first

    def test_mass_conserved_across_frames(self):
        frames = generate_snapshots(n_frames=4, n_particles=200, seed=3)
        totals = [f.masses.sum() for f in frames]
        np.testing.assert_allclose(totals, totals[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_snapshots(n_frames=0)


class TestSPHRender:
    def test_flux_roughly_conserved(self):
        """Kernel scatter deposits (nearly) the total mass onto the grid."""
        frames = generate_snapshots(n_frames=1, n_particles=400, seed=4)
        grid = sph_column_density(frames[0], resolution=96, extent=6.0)
        cell_area = (2 * 6.0 / 96) ** 2
        assert grid.sum() * cell_area == pytest.approx(frames[0].masses.sum(), rel=0.15)

    def test_centrally_concentrated(self):
        frames = generate_snapshots(n_frames=1, n_particles=800, seed=5)
        grid = sph_column_density(frames[0], resolution=64)
        centre = grid[24:40, 24:40].mean()
        edge = np.concatenate([grid[:4].ravel(), grid[-4:].ravel()]).mean()
        assert centre > 10 * edge

    def test_views_differ(self):
        frames = generate_snapshots(n_frames=2, n_particles=300, seed=6)
        late = frames[-1]  # flattened disc: xy ≠ xz
        xy = sph_column_density(late, resolution=32, view="xy")
        xz = sph_column_density(late, resolution=32, view="xz")
        assert not np.allclose(xy, xz)

    def test_bad_view_and_resolution(self):
        frames = generate_snapshots(n_frames=1, n_particles=10, seed=0)
        with pytest.raises(ValueError):
            sph_column_density(frames[0], view="qq")
        with pytest.raises(ValueError):
            sph_column_density(frames[0], resolution=2)

    def test_nonnegative(self):
        frames = generate_snapshots(n_frames=1, n_particles=100, seed=8)
        grid = sph_column_density(frames[0], resolution=32)
        assert (grid >= 0).all()


class TestUnits:
    def test_data_reader_emits_in_order(self):
        frames = generate_snapshots(n_frames=3, n_particles=50, seed=9,
                                    register_as="test-ds-1")
        reader = DataReader(dataset="test-ds-1")
        for expected in frames:
            (got,) = reader.process([])
            assert got.time == expected.time

    def test_data_reader_exhaustion(self):
        generate_snapshots(n_frames=1, n_particles=10, seed=0, register_as="test-ds-2")
        reader = DataReader(dataset="test-ds-2")
        reader.process([])
        with pytest.raises(UnitError):
            reader.process([])

    def test_data_reader_unknown_dataset(self):
        with pytest.raises(UnitError):
            DataReader(dataset="nope").process([])

    def test_data_reader_checkpoint(self):
        generate_snapshots(n_frames=3, n_particles=10, seed=0, register_as="test-ds-3")
        r1 = DataReader(dataset="test-ds-3")
        r1.process([])
        state = r1.checkpoint()
        r2 = DataReader(dataset="test-ds-3")
        r2.restore(state)
        (frame,) = r2.process([])
        assert frame.time == generate_snapshots(3, 10, 0)[1].time

    def test_column_density_unit(self):
        frames = generate_snapshots(n_frames=1, n_particles=100, seed=10)
        (img,) = ColumnDensity(resolution=32).process([frames[0]])
        assert img.shape == (32, 32)

    @pytest.mark.parametrize("resolution", [32, 64, 127])
    def test_scatter_vectorized_bit_identical_to_loop(self, resolution):
        """The numpy scatter must reproduce the reference loop bit for bit.

        This is the determinism contract for the render pipeline: the
        BENCH baselines and any golden image comparison assume the
        vectorized fast path changes *nothing* about the output, so the
        assertion is array_equal (exact bits), not allclose.
        """
        rng = np.random.default_rng(7)
        n = 500
        xs = rng.uniform(-3.0, 3.0, n)  # some particles off-grid
        ys = rng.uniform(-3.0, 3.0, n)
        masses = rng.uniform(0.1, 2.0, n)
        smoothing = rng.uniform(0.0, 0.4, n)  # below-cell values clamp
        grid_loop, grid_vec = scatter_both(xs, ys, masses, smoothing, resolution, 2.5)
        assert np.array_equal(grid_loop, grid_vec)

    @given(
        particles=st.lists(particle, max_size=40),
        resolution=st.sampled_from([4, 7, 24, 33, 64]),
        extent=st.sampled_from([2.5, 1.0, 3.3]),
        budget=st.one_of(st.integers(1, 400), st.just(galaxy_mod._SCATTER_CHUNK_ELEMENTS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_scatter_vectorized_bit_identical_on_generated_inputs(
        self, particles, resolution, extent, budget
    ):
        """The same contract for drawn particles, grids and chunk budgets
        (a budget of 1 gives every particle, each over it, its own range)."""
        columns = np.array(particles, dtype=float).reshape(-1, 4)
        xs, ys = columns[:, 0] * extent, columns[:, 1] * extent
        masses, smoothing = columns[:, 2], columns[:, 3] * extent
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galaxy_mod, "_SCATTER_CHUNK_ELEMENTS", budget)
            loop, vec = scatter_both(xs, ys, masses, smoothing, resolution, extent)
        assert np.array_equal(loop, vec)

    def test_far_flung_particle_has_an_empty_window(self):
        """1e30 / cell is past int64: clipped before the cast it is simply
        off the grid, as in the loop (cast first, the bounds would wrap)."""
        xs = np.array([0.1, 1e30, -1e30, 0.2])
        ys = np.array([0.0, 0.3, 1e30, -1e30])
        ones = np.ones(4)
        loop, vec = scatter_both(xs, ys, ones, 0.2 * ones, 32, 2.5)
        assert np.array_equal(loop, vec)
        alone, _ = scatter_both(xs[:1], ys[:1], ones[:1], 0.2 * ones[:1], 32, 2.5)
        assert np.array_equal(vec, alone)

    @pytest.mark.parametrize("field, index, value", [
        ("positions", (3, 0), np.nan),
        ("positions", (3, 1), np.inf),
        ("smoothing", 5, np.nan),
        ("smoothing", 5, np.inf),
        ("masses", 0, np.nan),
    ])
    def test_non_finite_particle_is_rejected_by_name(self, field, index, value):
        """A particle that cannot be placed is an error, not a frame
        silently rendered without it."""
        (frame,) = generate_snapshots(n_frames=1, n_particles=20, seed=12)
        getattr(frame, field)[index] = value
        with pytest.raises(ValueError, match=f"{field} has 1 non-finite"):
            sph_column_density(frame, resolution=16)
        with pytest.raises(UnitError, match=field):
            ColumnDensity(resolution=16).process([frame])

    @pytest.mark.parametrize("view", [
        {"extent": 0.0},
        {"extent": np.inf},
        {"extent": np.nan},
        {"extent": -2.5},
        {"theta": np.nan},
        {"phi": np.inf},
        {"theta": -np.inf, "phi": 0.3},
    ])
    def test_bad_view_is_rejected(self, view):
        """No image can be drawn in such a view.  It used to come back
        all zero with RuntimeWarnings, or (a negative extent) as a
        nonzero image with none."""
        (frame,) = generate_snapshots(n_frames=1, n_particles=200, seed=12)
        with pytest.raises(ValueError, match="extent|angles"):
            sph_column_density(frame, resolution=16, **view)
        with pytest.raises(UnitError):
            ColumnDensity(resolution=16, **view).process([frame])

    @pytest.mark.parametrize("param", ["extent", "resolution"])
    def test_column_density_rejects_an_infinite_size_when_set(self, param):
        """Caught by the setter, not by a render that casts ``inf``."""
        with pytest.raises(ParameterError, match="finite"):
            ColumnDensity(**{param: np.inf})

    def test_empty_snapshot_renders_an_empty_image(self):
        grid = sph_column_density(ParticleSnapshot(), resolution=8)
        assert grid.shape == (8, 8) and not grid.any()

    def test_scatter_chunking_is_bit_neutral(self):
        """A tiny chunk budget (forcing many chunks) changes nothing."""
        rng = np.random.default_rng(11)
        n = 300
        xs = rng.uniform(-2.0, 2.0, n)
        ys = rng.uniform(-2.0, 2.0, n)
        masses = rng.uniform(0.1, 2.0, n)
        smoothing = rng.uniform(0.0, 0.5, n)
        resolution, extent = 48, 2.5
        cell = 2 * extent / resolution
        one_chunk = np.zeros((resolution, resolution))
        many_chunks = np.zeros((resolution, resolution))
        galaxy_mod._scatter_vectorized(
            xs, ys, masses, smoothing, one_chunk, resolution, cell, extent
        )
        budget = galaxy_mod._SCATTER_CHUNK_ELEMENTS
        try:
            galaxy_mod._SCATTER_CHUNK_ELEMENTS = 500
            galaxy_mod._scatter_vectorized(
                xs, ys, masses, smoothing, many_chunks, resolution, cell, extent
            )
        finally:
            galaxy_mod._SCATTER_CHUNK_ELEMENTS = budget
        assert np.array_equal(one_chunk, many_chunks)

    def test_column_density_bad_view_is_unit_error(self):
        frames = generate_snapshots(n_frames=1, n_particles=10, seed=0)
        with pytest.raises(UnitError):
            ColumnDensity(view="zz").process([frames[0]])

    def test_frame_collector_animation(self):
        from repro.core import ImageData

        fc = FrameCollector()
        for i in range(3):
            fc.process([ImageData(pixels=np.full((4, 4), float(i)))])
        anim = fc.animation()
        assert anim.shape == (3, 4, 4)
        np.testing.assert_allclose(anim[2], 2.0)

    def test_frame_collector_empty(self):
        with pytest.raises(UnitError):
            FrameCollector().animation()

    def test_cost_model_scales_with_particles(self):
        cd = ColumnDensity()
        assert cd.estimated_flops(40 * 10_000) > 50 * cd.estimated_flops(40 * 100)


class TestLocalPipeline:
    def test_graph_runs_locally(self):
        generate_snapshots(n_frames=4, n_particles=120, seed=11,
                           register_as="test-ds-local")
        g = build_galaxy_graph("test-ds-local", resolution=24, policy="none")
        engine = LocalEngine(g)
        engine.run(iterations=4)
        collector = engine.units["Collector"]
        assert collector.animation().shape == (4, 24, 24)


class TestDistributedFarm:
    def test_farm_matches_local_render(self):
        """Paper's headline: frames rendered remotely, returned in order."""
        from repro import ConsumerGrid

        generate_snapshots(n_frames=6, n_particles=150, seed=12,
                           register_as="test-ds-farm")
        g = build_galaxy_graph("test-ds-farm", resolution=24, policy="parallel")
        grid = ConsumerGrid(n_workers=3, seed=13)
        report = grid.run(g, iterations=6)
        assert len(report.group_results) == 6

        # Reference: local render of the same frames.
        frames = generate_snapshots(n_frames=6, n_particles=150, seed=12)
        for it, outputs in enumerate(report.group_results):
            expected = sph_column_density(frames[it], resolution=24)
            np.testing.assert_allclose(outputs[0].pixels, expected)

        collector = grid.controller.last_downstream.units["Collector"]
        assert collector.animation().shape[0] == 6


class TestPipelineTwoGroups:
    def test_post_production_matches_local(self):
        """Render farm + post-production farm in one staged run."""
        from repro import ConsumerGrid
        from repro.apps.galaxy import build_galaxy_pipeline_graph

        generate_snapshots(n_frames=5, n_particles=120, seed=21,
                           register_as="test-ds-pipe")
        g = build_galaxy_pipeline_graph("test-ds-pipe", resolution=24)
        assert {grp.name: grp.policy for grp in g.groups()} == {
            "RenderFarm": "parallel",
            "PostFarm": "chunked",
        }
        grid = ConsumerGrid(n_workers=4, seed=22)
        report = grid.run(g, iterations=5)
        assert report.policy == "parallel+chunked"
        assert len(report.group_results) == 5

        local = LocalEngine(
            build_galaxy_pipeline_graph("test-ds-pipe", resolution=24)
        )
        local.run(5)
        reference = local.units["Collector"].animation()
        distributed = (
            grid.controller.last_downstream.units["Collector"].animation()
        )
        np.testing.assert_allclose(distributed, reference)
