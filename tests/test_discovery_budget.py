"""Deterministic work budget for advertisement lookup.

The sibling of ``test_frame_budget.py`` and ``test_kernel_budget.py`` for
``AdvCache``: what a named query, an expiry check and a publish cost,
stated as *counts* — records matched, passes over the cache, key
comparisons, bytes held — so the figures do not depend on the machine and
can gate where wall clock (gridbench's job) cannot.  A scan-per-query
cache fails the first three; a per-name container allocated for every
record, a bucket searched on re-publish or per-instance index fields fail
the rest.
"""

import gc
import tracemalloc

import pytest

from repro.p2p import (
    ADV_PIPE,
    ADV_SERVICE,
    AdvCache,
    Advertisement,
    Peer,
    RendezvousDiscovery,
    SimNetwork,
)
from repro.simkernel import Simulator

from .test_p2p_advertisement import ScanCache

N = 10_000


class WalkCountingDict(dict):
    """``_records`` with every whole-cache iteration counted."""

    walks = 0

    def _walk(self, view):
        self.walks += 1
        return view

    def __iter__(self):
        return self._walk(super().__iter__())

    def keys(self):
        return self._walk(super().keys())

    def values(self):
        return self._walk(super().values())

    def items(self):
        return self._walk(super().items())


def watch_walks(cache) -> WalkCountingDict:
    cache._records = WalkCountingDict(cache._records)
    return cache._records


@pytest.fixture
def matches_calls(monkeypatch):
    """Every ``Advertisement.matches`` call made while the test runs."""
    calls = []
    matches = Advertisement.matches

    def counted(self, *args, **kwargs):
        calls.append(self)
        return matches(self, *args, **kwargs)

    monkeypatch.setattr(Advertisement, "matches", counted)
    return calls


def service_adv(i: int, expires_at: float = float("inf")) -> Advertisement:
    return Advertisement.make(ADV_SERVICE, f"svc:{i}", f"p{i}", expires_at=expires_at)


class TestNamedQueryBudget:
    def test_a_named_query_matches_its_answer_not_the_cache(self, matches_calls):
        cache = AdvCache()
        for i in range(N):
            cache.put(service_adv(i))
        records = watch_walks(cache)
        walks = []
        for i in range(0, N, N // 100):
            assert [a.publisher for a in cache.query(1.0, ADV_SERVICE, f"svc:{i}")] == [f"p{i}"]
            walks.append(records.walks)
        assert len(matches_calls) <= 100  # a scan makes 1 000 000
        # The first named query builds the index; nothing walks again —
        # not the lookup, and not expiry: nothing here can expire.
        assert walks == [1] * 100
        assert cache.query(1.0, name="svc:never-published") == []
        assert (len(matches_calls), records.walks) == (100, 1)

    def test_a_query_for_every_record_is_still_one_scan(self, matches_calls):
        cache = AdvCache()
        for i in range(100):
            cache.put(service_adv(i))
        records = watch_walks(cache)
        assert len(cache.query(1.0, adv_type=ADV_SERVICE)) == 100
        assert (len(matches_calls), records.walks) == (100, 1)

    def test_a_swarm_query_matches_once_per_answer(self, matches_calls):
        # sim_swarm's shape, smaller: every peer publishes one uniquely
        # named service to its rendezvous, then 40 edge peers each ask for
        # another peer's by exact name.  A query reaches the asker's cache
        # and all 8 rendezvous; one of the nine holds the one answer.
        n_peers, n_rdv, n_queries = 2_000, 8, 40
        sim = Simulator(seed=7)
        net = SimNetwork(sim, jitter_fraction=0.0)
        disc = RendezvousDiscovery()
        peers = [Peer(f"p{i}", net) for i in range(n_peers)]
        for peer in peers:
            disc.attach(peer)
        for peer in peers[:n_rdv]:
            disc.add_rendezvous(peer)
        for i, peer in enumerate(peers):
            disc.publish(peer, service_adv(i))
        sim.run()
        watched = [watch_walks(peer.cache) for peer in peers[:n_rdv]]
        events = [
            disc.query(peers[n_rdv + 7 * q], ADV_SERVICE, f"svc:{n_peers - 1 - 11 * q}")
            for q in range(n_queries)
        ]
        sim.run()
        assert [[a.publisher for a in ev.value] for ev in events] == [
            [f"p{n_peers - 1 - 11 * q}"] for q in range(n_queries)
        ]
        assert len(matches_calls) == n_queries  # a scan makes 40 x (2 000 + 1)
        assert [records.walks for records in watched] == [1] * n_rdv  # the index builds


class TestExpiryBudget:
    def test_nothing_is_scanned_before_something_can_expire(self):
        cache = AdvCache()
        for i in range(N):
            cache.put(service_adv(i, expires_at=100.0 + i))
        records = watch_walks(cache)
        for now in (0.0, 50.0, 99.0, 99.999):
            assert cache.expire(now) == 0
            assert cache.query(now, name="svc:0") != []
        assert records.walks == 1  # the index build
        # The earliest expiry is reached: exactly one pass, which also
        # finds the next bound — the instant after costs nothing again.
        assert cache.expire(100.0) == 1
        assert records.walks == 2
        assert cache.expire(100.0) == cache.expire(100.5) == 0
        assert cache.query(100.5, name="svc:0") == []
        assert records.walks == 2
        assert cache.expire(101.0) == 1
        assert (records.walks, len(cache._records)) == (3, N - 2)

    def test_a_stale_low_bound_costs_one_empty_pass_never_a_stale_answer(self):
        cache = AdvCache()
        cache.put(service_adv(0, expires_at=10.0))
        cache.put(service_adv(0, expires_at=30.0))  # keep-alive: later expiry
        records = watch_walks(cache)
        assert cache.expire(10.0) == 0              # the pass the old bound costs
        assert cache.expire(20.0) == 0              # 30.0 is the bound now
        assert records.walks == 1
        assert cache.expire(30.0) == 1
        assert len(cache._records) == 0


class CountedStr(str):
    """A key part whose hashes and comparisons are counted."""

    ops = 0

    def __hash__(self):
        CountedStr.ops += 1
        return str.__hash__(self)

    def __eq__(self, other):
        CountedStr.ops += 1
        return str.__eq__(self, other)

    def __ne__(self, other):
        CountedStr.ops += 1
        return str.__ne__(self, other)


class TestPublishBudget:
    def test_a_shared_name_is_published_without_searching_its_bucket(self):
        # N hosts advertise the same name, one record per host, and
        # re-publish it as a keep-alive.  With the index
        # in place each put may hash and compare its key a bounded number
        # of times — a bucket searched on re-publish would compare against
        # ~N / 2 other publishers per put.
        cache = AdvCache()
        cache.put(service_adv(0))
        assert len(cache.query(0.0, name="svc:0")) == 1  # the index exists
        name = "pipe:shared"
        for round_ in range(2):
            # Fresh, equal publisher objects each round: a re-publish is
            # found by comparing keys, not by identity.
            adverts = [
                Advertisement.make(ADV_PIPE, name, CountedStr(f"host-{i}"),
                                   attrs={"round": round_})
                for i in range(N)
            ]
            CountedStr.ops = 0
            for adv in adverts:
                cache.put(adv)
            assert CountedStr.ops <= 8 * N
            assert len(cache._records) == N + 1
        hits = cache.query(0.0, ADV_PIPE, name)
        assert len(hits) == N
        assert {a.attributes["round"] for a in hits} == {1}


class TestFootprintBudget:
    def test_a_cache_never_asked_by_name_costs_what_it_did(self):
        # A swarm has one cache per peer, almost all of them holding the
        # owner's one advert and never asked anything: the index and the
        # expiry bound must cost such a cache nothing, instance fields
        # included (two assignments in __init__ are +10 % here).
        adverts = [service_adv(i) for i in range(N)]

        def held_bytes(cache_type) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                caches = []
                for adv in adverts:
                    cache = cache_type()
                    cache.put(adv)
                    caches.append(cache)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # The interpreter's free lists hand out blocks tracemalloc never
        # sees; a throwaway round leaves them equally full for both.  And
        # CPython sizes an instance by the attribute names its class has
        # seen so far, so each side is a subclass no test has touched.
        held_bytes(ScanCache)
        before = held_bytes(type("FreshScanCache", (ScanCache,), {}))
        now = held_bytes(type("FreshAdvCache", (AdvCache,), {}))
        assert abs(now - before) <= 0.01 * before

    def test_an_index_holds_no_container_per_record(self):
        # Uniquely named records sit in the index bare; a dict or a list
        # per name is +1.6 to +3.5 MiB on 10 000 peers.
        cache = AdvCache()
        for i in range(N):
            cache.put(service_adv(i))
        gc.collect()
        tracemalloc.start()
        try:
            cache.query(0.0, name="svc:0")
            built = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert built <= 64 * N  # one hash table of N slots; a list each is ~120 N
