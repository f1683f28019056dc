"""Deterministic budget for the two case-study kernels.

The sibling of ``test_frame_budget.py`` for ``apps.galaxy`` and
``apps.inspiral``: what one render and one search cost, stated as
*counts* — bytes allocated, cells scattered, transforms run — so the
figures do not depend on the machine and can gate where wall clock
(gridbench's job) cannot.
"""

import numpy as np

import repro.apps.galaxy as galaxy_mod
from repro.apps.galaxy import generate_snapshots, sph_column_density
from repro.apps.inspiral import TemplateBank, make_strain_chunk, search_chunk

from .test_frame_budget import traced_peak


def ladder_snapshot():
    """The frame gridbench's ``apps.galaxy.render_ms`` rung renders."""
    return generate_snapshots(1, 2000, seed=0)[0]


class TestRenderBudget:
    def test_render_peak_memory(self):
        """A padded (chunk, span, span) scatter peaked at 28.8 MiB here,
        all 179 k window cells in one pass at 12.1, 32 Ki-cell passes
        with a boolean-mask kernel at 2.1; 16 Ki-cell passes with an
        indexed kernel stay near 1.2."""
        snapshot = ladder_snapshot()
        assert traced_peak(lambda: sph_column_density(snapshot, resolution=64)) <= 2 << 20

    def test_pass_temporaries_fit_under_the_mmap_threshold(self):
        """One float64 per window cell of a pass is at most glibc's
        default ``M_MMAP_THRESHOLD`` (128 KiB), so malloc serves a pass's
        temporaries from the heap instead of mapping and faulting them
        in again on every pass."""
        assert galaxy_mod._SCATTER_CHUNK_ELEMENTS * 8 <= 128 << 10

    def test_scatter_touches_only_window_cells(self, monkeypatch):
        """Entries handed to ``np.add.at`` == cells of the particles' own
        clipped windows, computed here the reference loop's way."""
        snapshot = ladder_snapshot()
        resolution, extent = 64, 2.5
        cell = 2.0 * extent / resolution
        expected = 0
        for (x, y, _), h in zip(snapshot.positions, snapshot.smoothing):
            r = int(np.ceil(2.0 * max(h, cell) / cell))
            cx, cy = int(np.floor((x + extent) / cell)), int(np.floor((y + extent) / cell))
            wx = min(cx + r + 1, resolution) - max(cx - r, 0)
            wy = min(cy + r + 1, resolution) - max(cy - r, 0)
            expected += max(wx, 0) * max(wy, 0)

        handed = []

        class CountingNumpy:
            """``np`` as the scatter sees it, ``add.at`` counted."""

            class add:
                @staticmethod
                def at(target, indices, values):
                    handed.append(len(indices))
                    np.add.at(target, indices, values)

            def __getattr__(self, name):
                return getattr(np, name)

        grid = sph_column_density(snapshot, resolution=resolution, extent=extent)
        monkeypatch.setattr(galaxy_mod, "np", CountingNumpy())
        counted = sph_column_density(snapshot, resolution=resolution, extent=extent)
        assert np.array_equal(grid, counted)
        assert sum(handed) == expected
        assert max(handed) <= galaxy_mod._SCATTER_CHUNK_ELEMENTS


class TestSearchBudget:
    def test_templates_are_transformed_once_per_bank(self, monkeypatch):
        """``k`` searches of one bank: the chunk once each, every template
        once in all (it was once per search), one inverse per pair."""
        k, n_templates = 5, 8
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            real = getattr(np.fft, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(np.fft, name, counted)
        bank = TemplateBank(n_templates)
        for seed in range(k):
            search_chunk(make_strain_chunk(4.0, seed=seed), bank)
        assert calls == {"rfft": k + n_templates, "irfft": k * n_templates}
