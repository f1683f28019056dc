"""Property-based tests: database queries, dispatch policies, adv cache."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.database import apply_manipulation, apply_where
from repro.core import TableData
from repro.p2p import AdvCache, Advertisement
from repro.service.placement import RoundRobin, WeightedBySpeed

# -- database query engine ----------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.integers(-100, 100),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=40,
)


@given(rows_strategy, st.integers(-100, 100))
@settings(max_examples=50)
def test_where_matches_python_filter(rows, threshold):
    table = TableData(["id", "value", "kind"], rows)
    out = apply_where(table, (("id", ">", threshold),))
    expected = [r for r in rows if r[0] > threshold]
    assert out.rows == expected


@given(rows_strategy)
@settings(max_examples=50)
def test_where_conjunction_is_intersection(rows):
    table = TableData(["id", "value", "kind"], rows)
    both = apply_where(table, (("id", ">=", 0), ("kind", "==", "a")))
    expected = [r for r in rows if r[0] >= 0 and r[2] == "a"]
    assert both.rows == expected


@given(rows_strategy)
@settings(max_examples=50)
def test_sort_is_stable_and_complete(rows):
    table = TableData(["id", "value", "kind"], rows)
    out = apply_manipulation(table, ("sort", "value"))
    assert sorted(out.column("value")) == out.column("value")
    assert sorted(out.rows) == sorted(rows)  # no row lost or invented


@given(rows_strategy, st.integers(1, 10))
@settings(max_examples=50)
def test_topk_really_is_top_k(rows, k):
    table = TableData(["id", "value", "kind"], rows)
    out = apply_manipulation(table, ("topk", "value", k))
    assert len(out) == min(k, len(rows))
    if rows and len(out):
        cutoff = min(out.column("value"))
        better = [r for r in rows if r[1] > cutoff]
        assert len(better) <= k


@given(rows_strategy)
@settings(max_examples=50)
def test_sum_by_conserves_total(rows):
    table = TableData(["id", "value", "kind"], rows)
    out = apply_manipulation(table, ("sum_by", "kind", "value"))
    np.testing.assert_allclose(
        sum(out.column("sum_value")), sum(r[1] for r in rows), atol=1e-6
    )
    assert len(out) == len({r[2] for r in rows})


# -- dispatch policies -----------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=6),
    st.integers(1, 60),
)
@settings(max_examples=50)
def test_weighted_dispatch_load_tracks_speed(speeds, n):
    policy = WeightedBySpeed()
    policy.setup(speeds)
    counts = [0] * len(speeds)
    for i in range(n):
        counts[policy.choose(i)] += 1
    assert sum(counts) == n
    # No replica is starved while a >=2x slower one carries more work.
    for fast in range(len(speeds)):
        for slow in range(len(speeds)):
            if speeds[fast] >= 2.0 * speeds[slow] and n >= 4 * len(speeds):
                assert counts[fast] >= counts[slow]


@given(st.integers(1, 6), st.integers(1, 60))
@settings(max_examples=30)
def test_round_robin_is_balanced(k, n):
    policy = RoundRobin()
    policy.setup([1.0] * k)
    counts = [0] * k
    for i in range(n):
        counts[policy.choose(i)] += 1
    assert max(counts) - min(counts) <= 1


# -- advertisement cache -------------------------------------------------------------------

adv_strategy = st.tuples(
    st.sampled_from(["pipe", "peer", "service"]),
    st.sampled_from(["r0", "r1", "r2", "r3"]),
    st.sampled_from(["p0", "p1"]),
    st.floats(min_value=1.0, max_value=100.0),
)


@given(st.lists(adv_strategy, max_size=30), st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=50)
def test_adv_cache_expiry_invariant(entries, now):
    cache = AdvCache()
    for adv_type, name, publisher, expiry in entries:
        cache.put(Advertisement.make(adv_type, name, publisher, expires_at=expiry))
    results = cache.query(now=now)
    # Nothing expired is ever returned.
    assert all(adv.expires_at > now for adv in results)
    # At most one record per (type, name, publisher) key.
    keys = [(a.adv_type, a.name, a.publisher) for a in results]
    assert len(keys) == len(set(keys))
    # Ordering is by publication id.
    ids = [a.adv_id for a in results]
    assert ids == sorted(ids)
