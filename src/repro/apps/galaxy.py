"""Case 1 — galaxy-formation visualisation (§3.6.1).

"Galaxy and star formation simulation codes generate binary data files
that represent a series of particles in three dimensions ... It is
possible to distribute each time slice or frame over a number of
processes and calculate the different views based on the point of view
in parallel. ... The loaded data is ... separated into frames,
distributed amongst the various Triana servers ... and processed to
calculate the column density using smooth particle hydrodynamics."

This module provides the full workload:

* :func:`generate_snapshots` — a synthetic collapsing-Plummer-sphere
  particle dataset (the Cardiff group's binary files are not available;
  the substitution preserves per-frame independent rendering work of
  tunable cost);
* :class:`DataReader` — the single loader unit at the controller;
* :class:`ColumnDensity` — the SPH projection renderer (a real cubic-
  spline scatter, not a stub), with a view parameter so "the user can
  ... vary the perspective of view";
* :class:`FrameCollector` — the visualisation sink that animates frames
  **in order**;
* :func:`build_galaxy_graph` — the distributable task graph.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..core.errors import UnitError
from ..core.registry import register_unit
from ..core.types import ImageData, ParticleSnapshot
from ..core.units import ParamSpec, Unit
from ..core.taskgraph import TaskGraph

__all__ = [
    "generate_snapshots",
    "register_dataset",
    "sph_column_density",
    "view_rotation",
    "DataReader",
    "ColumnDensity",
    "FrameCollector",
    "build_galaxy_graph",
    "build_galaxy_pipeline_graph",
]

#: Dataset registry: DataReader units reference datasets by key so the
#: task-graph XML stays a small text file (the data itself is shipped as
#: payloads, exactly like the paper's "data file is loaded by a single
#: Data Reader Unit ... and passed to all the Triana nodes").
_DATASETS: dict[str, list[ParticleSnapshot]] = {}


def register_dataset(key: str, snapshots: Sequence[ParticleSnapshot]) -> None:
    """Make a snapshot series available to DataReader units."""
    _DATASETS[key] = list(snapshots)


def generate_snapshots(
    n_frames: int = 16,
    n_particles: int = 2000,
    seed: int = 0,
    register_as: str | None = None,
) -> list[ParticleSnapshot]:
    """Synthesise a collapsing, rotating Plummer sphere over time.

    Each frame is one "snap shot in time of the total data set"; frames
    are independent render inputs, which is what makes the parallel farm
    policy applicable.
    """
    if n_frames < 1 or n_particles < 1:
        raise ValueError("n_frames and n_particles must be >= 1")
    rng = np.random.default_rng(seed)
    # Plummer-sphere radial profile.
    a = 1.0
    u = rng.random(n_particles)
    r = a / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    r = np.clip(r, 0, 5 * a)
    costheta = rng.uniform(-1, 1, n_particles)
    phi = rng.uniform(0, 2 * np.pi, n_particles)
    sintheta = np.sqrt(1 - costheta**2)
    pos0 = np.column_stack(
        [
            r * sintheta * np.cos(phi),
            r * sintheta * np.sin(phi),
            r * costheta,
        ]
    )
    masses = np.full(n_particles, 1.0 / n_particles)
    smoothing = 0.1 + 0.2 * r / (5 * a)

    frames = []
    for k in range(n_frames):
        t = k / max(n_frames - 1, 1)
        # Collapse radially and spin up around z, like a forming disc.
        shrink = 1.0 - 0.5 * t
        angle = 2.0 * np.pi * t
        c, s = np.cos(angle * (1.0 + r / a)), np.sin(angle * (1.0 + r / a))
        x = shrink * (pos0[:, 0] * c - pos0[:, 1] * s)
        y = shrink * (pos0[:, 0] * s + pos0[:, 1] * c)
        z = pos0[:, 2] * (1.0 - 0.8 * t)  # flatten into a disc
        frames.append(
            ParticleSnapshot(
                positions=np.column_stack([x, y, z]),
                masses=masses.copy(),
                smoothing=smoothing * shrink,
                time=float(t),
            )
        )
    if register_as is not None:
        register_dataset(register_as, frames)
    return frames


_VIEW_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def view_rotation(theta: float, phi: float) -> np.ndarray:
    """Rotation matrix for an arbitrary viewing direction.

    ``theta`` tilts about the x axis, ``phi`` spins about the z axis
    (radians); the projection plane is the rotated frame's xy plane —
    "the ability to vary the perspective of view" continuously.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rot_z = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
    return rot_x @ rot_z


#: Window cells one pass of the vectorized scatter works on.  Each of the
#: pass's dozen 8-byte-per-cell temporaries is then at most 128 KiB,
#: glibc's default mmap threshold.  At 32 Ki cells each is 256 KiB, and
#: malloc maps or trims them so the next pass faults the pages back in:
#: one ``sim_galaxy_farm`` rep (ten 2 000-particle 64x64 renders, ~180 k
#: cells each) takes ~5 900 page faults at 32 Ki, ~2 100 at 16 Ki, and
#: 16 Ki is its fastest pass of 8, 16 and 32 Ki.  A pathological
#: smoothing length costs one particle's window of memory, not a chunk's.
_SCATTER_CHUNK_ELEMENTS = 1 << 14


def _cubic_spline_kernel(q: np.ndarray) -> np.ndarray:
    """2-D-normalised cubic spline (M4), support ``q`` in [0, 2).

    Shared by the reference loop (2-D ``q``) and the vectorized scatter
    (1-D) so both paths evaluate the exact same float expressions.  Each
    branch gathers its cells once through integer indices; a cell outside
    both (``q >= 2``, NaN) stays ``0.0``, which the normalisation would
    not have moved either.
    """
    flat = q.reshape(-1)
    near = np.flatnonzero(flat < 1.0)
    far = np.flatnonzero((flat >= 1.0) & (flat < 2.0))
    norm = 10.0 / (7.0 * np.pi)
    w = np.zeros_like(flat)
    qn = flat[near]
    w[near] = (1.0 - 1.5 * qn ** 2 + 0.75 * qn ** 3) * norm
    qf = flat[far]
    w[far] = (0.25 * (2.0 - qf) ** 3) * norm
    return w.reshape(q.shape)


def _scatter_loop(xs, ys, masses, smoothing, grid, resolution, cell, extent) -> None:
    """Reference per-particle scatter (pure-python loop over particles).

    Test-only: the readable specification of the algorithm, which the
    vectorized path must reproduce bit for bit.
    """
    for i in range(len(xs)):
        h = max(smoothing[i], cell)
        cx = int(np.floor((xs[i] + extent) / cell))
        cy = int(np.floor((ys[i] + extent) / cell))
        radius_cells = int(np.ceil(2.0 * h / cell))
        x_lo, x_hi = max(cx - radius_cells, 0), min(cx + radius_cells + 1, resolution)
        y_lo, y_hi = max(cy - radius_cells, 0), min(cy + radius_cells + 1, resolution)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue
        gx = (np.arange(x_lo, x_hi) + 0.5) * cell - extent
        gy = (np.arange(y_lo, y_hi) + 0.5) * cell - extent
        dx = (gx - xs[i])[:, None]
        dy = (gy - ys[i])[None, :]
        q = np.sqrt(dx**2 + dy**2) / h
        # h * h (not h**2): numpy's *scalar* power goes through libm pow,
        # which can differ from the array path's x*x square by 1 ulp; an
        # explicit product keeps both scatter paths bit-identical.
        w = _cubic_spline_kernel(q) / (h * h)
        grid[x_lo:x_hi, y_lo:y_hi] += masses[i] * w


def _ragged(counts: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The runs ``firsts[k], firsts[k] + 1, ...`` of ``counts[k]`` entries
    each, concatenated; ``np.repeat(values, counts)`` lines values up."""
    shift = firsts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(int(counts.sum()))


def _scatter_vectorized(xs, ys, masses, smoothing, grid, resolution, cell, extent) -> None:
    """Vectorized SPH scatter, bit-identical to :func:`_scatter_loop`.

    Ragged: each particle contributes exactly the cells of its own
    clipped window ``[x_lo, x_hi) x [y_lo, y_hi)`` — one entry per
    (particle, row), one per (particle, column), one per (particle, row,
    column) — so no cell is evaluated that the loop does not evaluate.
    Why the output is *exactly* equal, not just close:

    * the windows are the loop's: its integer bounds computed on
      integer-valued floats (exact below 2**53) and clipped to the grid
      *before* the cast, so a particle flung to 1e30 has an empty window
      here as it has there, where casting first would wrap;
    * every per-cell contribution is the same elementwise float
      expression the loop evaluates (``(idx + 0.5) * cell - extent``,
      ``(g - x) ** 2``, ``sqrt(dx2 + dy2) / h``, the shared kernel,
      ``/ (h * h)``, ``masses * w``) on 1-D arrays, so each scalar is
      bit-identical;
    * ``np.add.at`` accumulates unbuffered in index order, and the
      entries are particle-major — so each grid cell receives its
      contributions in particle order, exactly like the loop.  Chunking
      splits the particle range in order, preserving that property.

    A chunk is a particle range of at most
    :data:`_SCATTER_CHUNK_ELEMENTS` window cells (one particle over the
    budget gets a range to itself).  Inputs must be finite
    (:func:`sph_column_density` checks).
    """
    n = len(xs)
    h = np.maximum(smoothing, cell)
    cx = np.floor((xs + extent) / cell)
    cy = np.floor((ys + extent) / cell)
    radius = np.ceil(2.0 * h / cell)
    x_lo = np.clip(cx - radius, 0, resolution).astype(np.int64)
    x_hi = np.clip(cx + radius + 1, 0, resolution).astype(np.int64)
    y_lo = np.clip(cy - radius, 0, resolution).astype(np.int64)
    y_hi = np.clip(cy + radius + 1, 0, resolution).astype(np.int64)
    wx = np.maximum(x_hi - x_lo, 0)
    wy = np.maximum(y_hi - y_lo, 0)
    flat = grid.reshape(-1)
    ends = np.cumsum(wx * wy)
    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        end = int(np.searchsorted(ends, base + _SCATTER_CHUNK_ELEMENTS, "right"))
        sl = slice(start, max(end, start + 1))
        start = sl.stop
        cwx, cwy = wx[sl], wy[sl]
        ix = _ragged(cwx, x_lo[sl])
        iy = _ragged(cwy, y_lo[sl])
        dx2 = ((ix + 0.5) * cell - extent - np.repeat(xs[sl], cwx)) ** 2
        dy2 = ((iy + 0.5) * cell - extent - np.repeat(ys[sl], cwy)) ** 2
        # Every row of a particle meets every column of that particle:
        # ``per_row`` columns each, found from where its columns start.
        per_row = np.repeat(cwy, cwx)
        col_first = np.cumsum(cwy) - cwy
        col = _ragged(per_row, np.repeat(col_first, cwx))
        per_particle = cwx * cwy
        hc = np.repeat(h[sl], per_particle)
        q = np.sqrt(np.repeat(dx2, per_row) + dy2[col]) / hc
        w = _cubic_spline_kernel(q) / (hc * hc)
        # ``iy[col] == col + y_lo - col_first`` of the column's particle,
        # so the cell index needs no second full-size gather.
        row_base = ix * resolution + np.repeat(y_lo[sl] - col_first, cwx)
        np.add.at(
            flat,
            np.repeat(row_base, per_row) + col,
            np.repeat(masses[sl], per_particle) * w,
        )


def sph_column_density(
    snapshot: ParticleSnapshot,
    resolution: int = 64,
    view: str = "xy",
    extent: float = 2.5,
    theta: float = 0.0,
    phi: float = 0.0,
) -> np.ndarray:
    """Project particles to a 2-D column-density map with an SPH kernel.

    ``view`` picks an axis-aligned plane; non-zero ``theta``/``phi``
    rotate the frame first, giving arbitrary perspectives.  Uses the
    standard cubic-spline (M4) kernel truncated at 2h, scattered onto the
    grid per particle.  Returns a (resolution, resolution) array.
    A NaN or infinite position, mass or smoothing length is a
    ``ValueError``: no window can be given to such a particle, and
    leaving it out silently would be a wrong image.  So is a view no
    image can be drawn in: an ``extent`` that is not finite and positive,
    or a non-finite ``theta`` / ``phi``.

    The scatter runs vectorized (:func:`_scatter_vectorized`); the
    per-particle :func:`_scatter_loop` is the reference the tests hold
    it bit-identical to.
    """
    if view not in _VIEW_AXES:
        raise ValueError(f"unknown view {view!r}; valid: {sorted(_VIEW_AXES)}")
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    if not (math.isfinite(extent) and extent > 0):
        raise ValueError(f"extent must be finite and positive, got {extent!r}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"view angles must be finite, got theta={theta!r}, phi={phi!r}")
    for name in ("positions", "masses", "smoothing"):
        bad = np.count_nonzero(~np.isfinite(getattr(snapshot, name)))
        if bad:
            raise ValueError(f"snapshot {name} has {bad} non-finite entries")
    positions = snapshot.positions
    if theta != 0.0 or phi != 0.0:
        positions = positions @ view_rotation(theta, phi).T
    ax, ay = _VIEW_AXES[view]
    xs = positions[:, ax]
    ys = positions[:, ay]
    grid = np.zeros((resolution, resolution))
    cell = 2.0 * extent / resolution
    _scatter_vectorized(
        xs, ys, snapshot.masses, snapshot.smoothing, grid, resolution, cell, extent
    )
    return grid


def _positive(x) -> None:
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"must be finite and positive, got {x!r}")


@register_unit(category="galaxy")
class DataReader(Unit):
    """"The data file is loaded by a single Data Reader Unit" — emits one
    snapshot per iteration from a registered dataset."""

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (ParticleSnapshot,)
    PARAMETERS = (ParamSpec("dataset", "", "registered dataset key"),)
    REQUIRED_PERMISSIONS = ("fs.read",)

    def reset(self) -> None:
        self._index = 0

    def checkpoint(self) -> dict[str, Any]:
        return {"index": self._index}

    def restore(self, state: dict[str, Any]) -> None:
        self._index = int(state.get("index", 0))

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        key = self.get_param("dataset")
        if key not in _DATASETS:
            raise UnitError(f"DataReader: no dataset registered as {key!r}")
        frames = _DATASETS[key]
        if self._index >= len(frames):
            raise UnitError(
                f"DataReader: dataset {key!r} exhausted after {len(frames)} frames"
            )
        frame = frames[self._index]
        self._index += 1
        return [frame]


@register_unit(category="galaxy")
class ColumnDensity(Unit):
    """SPH column-density projection of one snapshot (the farmed work)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ParticleSnapshot,)
    OUTPUT_TYPES = (ImageData,)
    CODE_SIZE = 60_000
    PARAMETERS = (
        ParamSpec("resolution", 64, "output grid side", _positive),
        ParamSpec("view", "xy", "projection plane: xy | xz | yz"),
        ParamSpec("extent", 2.5, "half-width of the projected region", _positive),
        ParamSpec("theta", 0.0, "view tilt about x, radians"),
        ParamSpec("phi", 0.0, "view spin about z, radians"),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (snap,) = inputs
        try:
            grid = sph_column_density(
                snap,
                resolution=int(self.get_param("resolution")),
                view=self.get_param("view"),
                extent=float(self.get_param("extent")),
                theta=float(self.get_param("theta")),
                phi=float(self.get_param("phi")),
            )
        except ValueError as exc:
            raise UnitError(f"ColumnDensity: {exc}") from exc
        return [ImageData(pixels=grid)]

    def estimated_flops(self, input_nbytes: int) -> float:
        # ~n_particles × kernel-window work; input is ~(3+1+1)·8 B/particle.
        n_particles = max(input_nbytes / 40.0, 1.0)
        window = 25.0  # mean cells under the kernel support
        return 50.0 * n_particles * window


@register_unit(category="galaxy")
class FrameCollector(Unit):
    """The visualisation unit: collects rendered frames *in order*.

    "Each distributed Triana service returns it's processed data in
    order, allowing the frames to be animated."
    """

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (ImageData,)

    def reset(self) -> None:
        self.frames: list[ImageData] = []

    def checkpoint(self) -> dict[str, Any]:
        return {"frames": [f.pixels.tolist() for f in self.frames]}

    def restore(self, state: dict[str, Any]) -> None:
        self.frames = [ImageData(pixels=np.asarray(p)) for p in state.get("frames", [])]

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        self.frames.append(inputs[0])
        return []

    def animation(self) -> np.ndarray:
        """Stacked (n_frames, res, res) array — the animation tensor."""
        if not self.frames:
            raise UnitError("FrameCollector: no frames collected")
        return np.stack([f.pixels for f in self.frames])


def build_galaxy_graph(
    dataset_key: str,
    resolution: int = 64,
    view: str = "xy",
    policy: str = "parallel",
) -> TaskGraph:
    """The Case-1 task graph: Reader → [Render]@policy → Collector."""
    g = TaskGraph("galaxy-formation")
    g.add_task("Reader", "DataReader", dataset=dataset_key)
    g.add_task("Render", "ColumnDensity", resolution=resolution, view=view)
    g.add_task("Collector", "FrameCollector")
    g.connect("Reader", 0, "Render", 0)
    g.connect("Render", 0, "Collector", 0)
    g.group_tasks("RenderFarm", ["Render"], policy=policy)
    return g


def build_galaxy_pipeline_graph(
    dataset_key: str,
    resolution: int = 64,
    view: str = "xy",
    render_policy: str = "parallel",
    post_policy: str = "chunked",
) -> TaskGraph:
    """Case 1 with a post-production stage: two policy groups in one run.

    Reader → [Render]@render_policy → [Blur → Edges]@post_policy →
    Collector.  The render farm produces raw column-density frames; a
    second distributed group enhances them (box blur then Sobel edges,
    both :class:`~repro.core.types.ImageData` toolbox units) before the
    in-order collector animates them.  Each group may carry a different
    distribution policy — the staged scheduler collects the render farm's
    frame *i* and immediately feeds it to the post group while frame
    *i+1* is still rendering.
    """
    g = TaskGraph("galaxy-pipeline")
    g.add_task("Reader", "DataReader", dataset=dataset_key)
    g.add_task("Render", "ColumnDensity", resolution=resolution, view=view)
    g.add_task("Blur", "BoxBlur", radius=1)
    g.add_task("Edges", "SobelEdges")
    g.add_task("Collector", "FrameCollector")
    g.connect("Reader", 0, "Render", 0)
    g.connect("Render", 0, "Blur", 0)
    g.connect("Blur", 0, "Edges", 0)
    g.connect("Edges", 0, "Collector", 0)
    g.group_tasks("RenderFarm", ["Render"], policy=render_policy)
    g.group_tasks("PostFarm", ["Blur", "Edges"], policy=post_policy)
    return g
