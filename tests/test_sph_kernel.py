"""The SPH cubic-spline kernel, held bit for bit to a boolean-mask reference.

``_scatter_loop`` and ``_scatter_vectorized`` call the same
``_cubic_spline_kernel``, so the scatter tests in ``test_apps_galaxy.py``
cannot see a change inside it.  This file keeps the boolean-mask kernel
the indexed one replaced as a test-only reference and compares raw bits
(``.view(np.int64)``, so ``-0.0`` against ``0.0`` and the NaN payload
count) on generated arrays, and pins a digest of rendered images.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.galaxy import _cubic_spline_kernel, generate_snapshots, sph_column_density


def mask_kernel(q: np.ndarray) -> np.ndarray:
    """The boolean-mask kernel: each branch's cells picked by a mask and
    gathered twice for ``q < 1``, the constant applied to every cell."""
    w = np.zeros_like(q)
    m1 = q < 1.0
    m2 = (q >= 1.0) & (q < 2.0)
    w[m1] = 1.0 - 1.5 * q[m1] ** 2 + 0.75 * q[m1] ** 3
    w[m2] = 0.25 * (2.0 - q[m2]) ** 3
    return w * (10.0 / (7.0 * np.pi))


def around(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGES = [
    *around(0.0), -0.0, *around(1.0), *around(2.0),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    1e150, -1e150, 1e300, -1e300, np.finfo(float).max,
    np.nan, np.inf, -np.inf,
]

cell_value = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-0.5, 2.5),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

q_arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 300), elements=cell_value),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                            max_side=24), elements=cell_value),
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


class TestKernelBits:
    @given(q=q_arrays, transpose=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_indexed_kernel_is_the_mask_kernel_bit_for_bit(self, q, transpose):
        """Any values, 1-D or 2-D (C-ordered or transposed), empty or not.
        Out-of-domain inputs overflow inside both kernels alike; the
        comparison is about bits, so those warnings are silenced here."""
        if transpose:
            q = q.T
        with np.errstate(all="ignore"):
            assert same_bits(_cubic_spline_kernel(q), mask_kernel(q))

    def test_branch_edges(self):
        q = np.array(EDGES)
        with np.errstate(all="ignore"):
            w = _cubic_spline_kernel(q)
            assert same_bits(w, mask_kernel(q))
        # 2.0, anything above it, NaN and +inf are outside the support.
        outside = (q >= 2.0) | np.isnan(q)
        assert not w[outside].any()
        assert w[q == 1.0][0] == 0.25 * (10.0 / (7.0 * np.pi))

    def test_in_domain_values_raise_no_floating_point_error(self):
        """What a scatter hands the kernel (``0 <= q``, finite) warns of
        nothing: under ``np.errstate(all="raise")`` any overflow, invalid
        or underflow would be an error here."""
        q = np.linspace(0.0, 2.5, 10_001).reshape(73, 137)
        with np.errstate(all="raise"):
            assert same_bits(_cubic_spline_kernel(q), mask_kernel(q))


#: SHA-256 (first 16 hex digits) over the 26 images of :func:`renders`,
#: computed with the boolean-mask kernel in 32 Ki-cell passes.
RENDER_DIGEST = "b0be5b081cd9f806"


def renders():
    """Ten ``sim_galaxy_farm`` frames (seed 3) face on and at an angle,
    then two seed-9 frames edge on at three resolutions."""
    for frame in generate_snapshots(10, 2000, seed=3):
        yield sph_column_density(frame)
        yield sph_column_density(frame, theta=0.7, phi=1.3)
    for frame in generate_snapshots(2, 2000, seed=9):
        for resolution in (4, 17, 128):
            yield sph_column_density(frame, resolution=resolution, view="xz")


def test_renders_keep_their_bits():
    digest = hashlib.sha256()
    count = 0
    for image in renders():
        digest.update(image.tobytes())
        count += 1
    assert count == 26
    assert digest.hexdigest()[:16] == RENDER_DIGEST
