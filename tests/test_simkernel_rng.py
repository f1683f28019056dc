"""Tests and properties for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import RngRegistry, Simulator, stable_hash


def test_same_seed_same_draws():
    a = RngRegistry(seed=7).stream("net").random(8)
    b = RngRegistry(seed=7).stream("net").random(8)
    np.testing.assert_array_equal(a, b)


def test_different_names_independent():
    reg = RngRegistry(seed=7)
    a = reg.stream("net").random(8)
    b = reg.stream("churn").random(8)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_stateful():
    reg = RngRegistry(seed=3)
    first = reg.stream("x").random(4)
    second = reg.stream("x").random(4)
    assert not np.array_equal(first, second)  # state advanced
    assert list(reg._streams) == ["x"]


def test_fresh_restarts_stream():
    reg = RngRegistry(seed=3)
    initial = reg.stream("x").random(4)
    again = reg.fresh("x").random(4)
    np.testing.assert_array_equal(initial, again)


def test_adding_stream_does_not_perturb_existing():
    """New named consumers must not change draws of old ones."""
    reg1 = RngRegistry(seed=11)
    a1 = reg1.stream("a").random(16)

    reg2 = RngRegistry(seed=11)
    reg2.stream("zzz-new-consumer")  # created before "a"
    a2 = reg2.stream("a").random(16)
    np.testing.assert_array_equal(a1, a2)


def test_seed_type_checked():
    import pytest

    with pytest.raises(TypeError):
        RngRegistry(seed="abc")  # type: ignore[arg-type]


def test_stable_hash_known_properties():
    assert stable_hash("peer-0") == stable_hash("peer-0")
    assert stable_hash("peer-0") != stable_hash("peer-1")
    assert 0 <= stable_hash("anything") < 2**64


@given(st.text(max_size=40), st.text(max_size=40))
@settings(max_examples=50)
def test_stable_hash_injective_in_practice(a, b):
    if a != b:
        assert stable_hash(a) != stable_hash(b)
    else:
        assert stable_hash(a) == stable_hash(b)


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
@settings(max_examples=25)
def test_registry_deterministic_property(seed, name):
    x = RngRegistry(seed).stream(name).integers(0, 1000, 5)
    y = RngRegistry(seed).stream(name).integers(0, 1000, 5)
    np.testing.assert_array_equal(x, y)


# -- block draws --------------------------------------------------------------------


@given(seed=st.integers(0, 2**32), n=st.integers(3 * 256 + 1, 1200))
@settings(max_examples=20, deadline=None)
def test_block_draws_are_the_scalar_draws(seed, n):
    # Past at least three block boundaries, call by call.
    reg = RngRegistry(seed=seed)
    draw = reg.draws("net-loss")
    scalar = reg.fresh("net-loss")
    assert [draw() for _ in range(n)] == [scalar.random() for _ in range(n)]


@given(
    seed=st.integers(0, 2**32),
    ranges=st.lists(
        st.tuples(
            st.floats(-10.0, 10.0, allow_nan=False),
            st.floats(1e-9, 10.0, allow_nan=False),
        ),
        min_size=1, max_size=300,
    ),
)
@settings(max_examples=30, deadline=None)
def test_a_scaled_block_draw_is_numpys_uniform_to_the_bit(seed, ranges):
    reg = RngRegistry(seed=seed)
    draw = reg.draws("net-reorder")
    scalar = reg.fresh("net-reorder")
    for lo, width in ranges:
        hi = lo + width
        assert lo + (hi - lo) * draw() == scalar.uniform(lo, hi)


def test_a_name_is_drawn_one_way():
    reg = RngRegistry(seed=1)
    draw = reg.draws("a")
    assert reg.draws("a") is draw  # one callable, one draw order
    with pytest.raises(ValueError, match="'a'"):
        reg.stream("a")
    reg.stream("b")
    with pytest.raises(ValueError, match="'b'"):
        reg.draws("b")
    assert list(reg._streams) == ["b"]


def test_the_simulator_hands_out_block_draws():
    sim = Simulator(seed=9)
    draw = sim.draws("net-dup")
    assert [draw() for _ in range(3)] == list(RngRegistry(seed=9).fresh("net-dup").random(3))
    with pytest.raises(ValueError):
        sim.rng("net-dup")
