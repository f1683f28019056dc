"""Tests for advertisements and the peer-local cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p import ADV_PIPE, ADV_SERVICE, AdvCache, Advertisement
from repro.p2p.advertisement import AttrPredicate


def adv(name="res", adv_type=ADV_PIPE, publisher="p0", attrs=None, expires=float("inf")):
    return Advertisement.make(adv_type, name, publisher, attrs, expires)


class TestAdvertisement:
    def test_make_and_attributes(self):
        a = adv(attrs={"cpu": 2e9, "ram": 1})
        assert a.attributes == {"cpu": 2e9, "ram": 1}

    def test_matches_type_and_name(self):
        a = adv(name="pipe-1")
        assert a.matches(adv_type=ADV_PIPE)
        assert a.matches(name="pipe-1")
        assert not a.matches(adv_type=ADV_SERVICE)
        assert not a.matches(name="pipe-2")

    def test_matches_predicate(self):
        a = adv(attrs={"cpu": 3e9})
        assert a.matches(predicate=lambda at: at["cpu"] > 2e9)
        assert not a.matches(predicate=lambda at: at["cpu"] > 4e9)

    def test_ids_are_unique_and_ordered(self):
        a, b = adv(), adv()
        assert b.adv_id > a.adv_id

    def test_wire_size_grows_with_attrs(self):
        assert adv(attrs={"a": 1, "b": 2}).wire_size() > adv().wire_size()

    def test_a_clause_that_cannot_be_compared_does_not_match(self):
        # The clause arrives in a query frame and the record from another
        # peer: a threshold of one type against a value of another is a
        # record that does not qualify, not an exception in the handler.
        a = adv(attrs={"host": "worker-0", "cpu": 2e9})
        assert not a.matches(predicate=AttrPredicate.make(at_least={"host": 1.0}))
        assert not a.matches(predicate=AttrPredicate.make(at_least={"cpu": "fast"}))
        assert not a.matches(predicate=AttrPredicate.make(at_least={"cpu": None}))
        assert a.matches(predicate=AttrPredicate.make(at_least={"cpu": 1e9}))


class TestAdvCache:
    def test_put_and_query(self):
        c = AdvCache()
        a = adv(name="x")
        c.put(a)
        assert c.query(now=0.0, name="x") == [a]
        assert c.query(now=0.0, name="y") == []

    def test_republish_replaces(self):
        c = AdvCache()
        c.put(adv(name="x", attrs={"v": 1}))
        c.put(adv(name="x", attrs={"v": 2}))
        assert len(c._records) == 1
        assert c.query(0.0, name="x")[0].attributes["v"] == 2

    def test_distinct_publishers_coexist(self):
        c = AdvCache()
        c.put(adv(name="x", publisher="a"))
        c.put(adv(name="x", publisher="b"))
        assert len(c._records) == 2

    def test_expiry(self):
        c = AdvCache()
        c.put(adv(name="x", expires=10.0))
        c.put(adv(name="y"))
        assert len(c.query(now=5.0)) == 2
        assert [a.name for a in c.query(now=10.0)] == ["y"]
        assert len(c._records) == 1  # expired record physically removed

    def test_expire_returns_count(self):
        c = AdvCache()
        c.put(adv(name="x", expires=1.0))
        c.put(adv(name="y", expires=1.0))
        assert c.expire(now=2.0) == 2

    def test_query_order_is_publication_order(self):
        c = AdvCache()
        first, second = adv(name="a"), adv(name="b")
        c.put(second)
        c.put(first)
        assert [r.adv_id for r in c.query(0.0)] == sorted([first.adv_id, second.adv_id])


# -- the old cache is the spec ------------------------------------------------------


class ScanCache:
    """The cache as it was before the name index and the expiry bound:
    every query expires by a full pass and matches every record.  Kept
    as the reference :class:`AdvCache` must be indistinguishable from.
    """

    def __init__(self):
        self._records = {}

    def put(self, adv):
        self._records[(adv.adv_type, adv.name, adv.publisher)] = adv

    def query(self, now, adv_type=None, name=None, predicate=None):
        self.expire(now)
        hits = [a for a in self._records.values() if a.matches(adv_type, name, predicate)]
        return sorted(hits, key=lambda a: a.adv_id)

    def expire(self, now):
        doomed = [k for k, a in self._records.items() if a.expires_at <= now]
        for k in doomed:
            del self._records[k]
        return len(doomed)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(sorted(self._records.values(), key=lambda a: a.adv_id))


TYPES = [ADV_PIPE, ADV_SERVICE]
NAMES = ["n0", "n1", "n2"]
PUBLISHERS = ["p0", "p1", "p2"]
PREDICATES = [
    None,
    AttrPredicate.make(equals={"v": 1}),
    AttrPredicate.make(at_least={"v": 2}),
    lambda attrs: attrs["v"] != 0,
]
# Finite expiries land on the instants ``now`` visits (steps of 0, 1 or
# 2.5 from 0), so "expires_at == now" is drawn, not just approached; a
# re-publish draws afresh, i.e. earlier, later or never.
expiries = st.sampled_from([float("inf"), 0.0, 1.0, 2.0, 2.5, 3.5, 5.0, 7.5, 40.0])

operation = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(TYPES), st.sampled_from(NAMES),
              st.sampled_from(PUBLISHERS), expiries, st.integers(0, 3)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 2.5])),
    st.tuples(st.just("expire")),
    st.tuples(st.just("query"), st.sampled_from([None, *TYPES]),
              st.sampled_from([None, "never-published", *NAMES]),
              st.integers(0, len(PREDICATES) - 1)),
)


def replay(operations):
    """Drive both caches with one script; every observable must agree."""
    ref, new = ScanCache(), AdvCache()
    now = 0.0
    for op, *args in operations:
        if op == "put":
            adv_type, name, publisher, expires_at, v = args
            record = Advertisement.make(adv_type, name, publisher, {"v": v}, expires_at)
            ref.put(record)
            new.put(record)
        elif op == "advance":
            now += args[0]
        elif op == "expire":
            assert new.expire(now) == ref.expire(now)
        else:
            adv_type, name, which = args
            predicate = PREDICATES[which]
            assert new.query(now, adv_type, name, predicate) == ref.query(
                now, adv_type, name, predicate
            )
        assert sorted(new._records.values(), key=lambda a: a.adv_id) == list(ref)
    # The index, where one was built, holds exactly the records.
    if new._by_name is not None:
        indexed = [
            record
            for held in new._by_name.values()
            for record in (held.values() if isinstance(held, dict) else [held])
        ]
        assert sorted(indexed, key=lambda a: a.adv_id) == list(ref)
        assert all(held for held in new._by_name.values())
    for name in NAMES:
        assert new.query(now, name=name) == ref.query(now, name=name)


class TestOldCacheIsTheSpec:
    @given(st.lists(operation, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_sequence_reads_the_same(self, operations):
        replay(operations)

    def test_a_name_goes_from_none_to_many_and_back(self):
        # 0 -> 1 -> 2 -> 3 records of one name, asked before the index
        # exists and after, then back down by both ways a record leaves;
        # another name rides along.
        q = ("query", None, "n0", 0)
        replay([
            ("put", ADV_PIPE, "n1", "p0", float("inf"), 0),
            q,                                                # builds the index: no n0
            ("put", ADV_PIPE, "n0", "p0", 2.0, 1), q,         # bare record
            ("put", ADV_PIPE, "n0", "p0", 5.0, 2), q,         # re-publish in place, later expiry
            ("put", ADV_PIPE, "n0", "p1", float("inf"), 1), q,   # second record: a bucket
            ("put", ADV_SERVICE, "n0", "p1", 2.5, 1), q,      # same name, another type
            ("put", ADV_PIPE, "n0", "p1", 1.0, 3), q,         # re-publish inside the bucket, earlier
            ("query", ADV_SERVICE, "n0", 1),
            ("advance", 1.0), q,                              # expiry takes one (3 -> 2)
            ("advance", 2.5), ("expire",), q,                 # the survivors' bound: 2 -> 1
            ("put", ADV_SERVICE, "n0", "p1", 40.0, 1), q,     # 1 -> 2 again
            ("advance", 40.0), ("expire",), q,                # 2 -> 0
            ("query", None, "n1", 0),
            ("put", ADV_PIPE, "n0", "p2", float("inf"), 0), q,   # the name comes back
        ])
