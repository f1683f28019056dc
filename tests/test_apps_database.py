"""Tests for the database-pipeline scenario (Case 3)."""

import numpy as np
import pytest

from repro.apps.database import (
    Database,
    DatabaseError,
    DatabasePipeline,
    DatabaseSite,
    QuerySpec,
    apply_manipulation,
    apply_where,
    run_pipeline,
    verify_table,
    visualise_table,
)
from repro.core import TableData
from repro.p2p import CentralIndexDiscovery, Peer, SimNetwork
from repro.simkernel import Simulator

CSV = """name, mass, distance
ngc1234, 11.5, 30
m31, 12.1, 0.78
m87, 13.0, 16.4
lmc, 9.5, 0.05
smc, 9.0, 0.06
"""


def sample_db():
    db = Database("astro")
    db.load_csv("galaxies", CSV)
    return db


class TestDatabase:
    def test_create_insert_select(self):
        db = Database()
        db.create_table("t", ["a", "b"])
        db.insert("t", (1, "x"))
        assert db.table("t").rows == [(1, "x")]

    def test_duplicate_table(self):
        db = Database()
        db.create_table("t", ["a"])
        with pytest.raises(DatabaseError):
            db.create_table("t", ["a"])

    def test_unknown_table(self):
        with pytest.raises(DatabaseError):
            Database().table("ghost")

    def test_load_csv_types(self):
        db = sample_db()
        t = db.table("galaxies")
        assert len(t) == 5
        assert t.column("mass") == [11.5, 12.1, 13.0, 9.5, 9.0]
        assert t.column("name")[0] == "ngc1234"
        assert t.column("distance")[3] == 0.05

    def test_load_csv_header_mismatch(self):
        db = sample_db()
        with pytest.raises(DatabaseError):
            db.load_csv("galaxies", "x, y\n1, 2\n")

    def test_load_csv_empty(self):
        with pytest.raises(DatabaseError):
            Database().load_csv("t", "   \n")


class TestQueryPieces:
    def test_where_filters(self):
        t = sample_db().table("galaxies")
        out = apply_where(t, (("mass", ">", 10.0),))
        assert sorted(out.column("name")) == ["m31", "m87", "ngc1234"]

    def test_where_conjunction(self):
        t = sample_db().table("galaxies")
        out = apply_where(t, (("mass", ">", 10.0), ("distance", "<", 20.0)))
        assert sorted(out.column("name")) == ["m31", "m87"]

    def test_where_bad_operator_and_column(self):
        t = sample_db().table("galaxies")
        with pytest.raises(DatabaseError):
            apply_where(t, (("mass", "~", 1),))
        with pytest.raises(DatabaseError):
            apply_where(t, (("nope", ">", 1),))

    def test_sort_and_topk(self):
        t = sample_db().table("galaxies")
        s = apply_manipulation(t, ("sort", "mass"))
        assert s.column("mass") == sorted(t.column("mass"))
        top2 = apply_manipulation(t, ("topk", "mass", 2))
        assert top2.column("name") == ["m87", "m31"]

    def test_sum_by(self):
        t = TableData(["kind", "n"], [("a", 1), ("b", 2), ("a", 3)])
        out = apply_manipulation(t, ("sum_by", "kind", "n"))
        assert out.rows == [("a", 4.0), ("b", 2.0)]

    def test_manipulation_none_passthrough(self):
        t = sample_db().table("galaxies")
        assert apply_manipulation(t, None) is t

    def test_manipulation_errors(self):
        t = sample_db().table("galaxies")
        with pytest.raises(DatabaseError):
            apply_manipulation(t, ("sort", "ghost"))
        with pytest.raises(DatabaseError):
            apply_manipulation(t, ("explode", "mass"))
        with pytest.raises(DatabaseError):
            apply_manipulation(t, ("sum_by", "name"))

    def test_visualise(self):
        t = sample_db().table("galaxies")
        g = visualise_table(t, "distance", "mass")
        assert len(g.x) == 5
        np.testing.assert_allclose(g.y, t.column("mass"))

    def test_visualise_non_numeric(self):
        t = sample_db().table("galaxies")
        with pytest.raises(DatabaseError):
            visualise_table(t, "name", "mass")

    def test_verify(self):
        t = sample_db().table("galaxies")
        ok = verify_table(t, QuerySpec(table="galaxies", expect_min_rows=3))
        assert ok["ok"] and ok["rows"] == 5
        bad = verify_table(t, QuerySpec(table="galaxies", expect_min_rows=10))
        assert not bad["ok"]
        assert "expected at least 10" in bad["problems"][0]


def build_scenario(n_sites=3):
    """Sites at different 'geographic' peers, one user peer."""
    sim = Simulator(seed=31)
    net = SimNetwork(sim, jitter_fraction=0.0)
    disc = CentralIndexDiscovery(query_window=1.0)
    index = Peer("index", net)
    disc.attach(index)
    disc.set_index(index)

    sites = []
    # Site 0: the archive — hosts the database + access; lower accuracy
    # manipulate.  Site 1: compute site with high-accuracy manipulate +
    # visualise.  Site 2: verification bureau.
    db = sample_db()
    p0 = Peer("site-0", net)
    disc.attach(p0)
    sites.append(DatabaseSite(p0, disc, database=db,
                              kinds=("data-access", "data-manipulate"),
                              accuracy=0.6))
    p1 = Peer("site-1", net)
    disc.attach(p1)
    sites.append(DatabaseSite(p1, disc,
                              kinds=("data-manipulate", "data-visualise"),
                              accuracy=0.9))
    p2 = Peer("site-2", net)
    disc.attach(p2)
    sites.append(DatabaseSite(p2, disc, kinds=("data-verify",), accuracy=0.8))

    user_peer = Peer("user", net)
    disc.attach(user_peer)
    user = DatabasePipeline(user_peer, disc)
    sim.run()  # settle advertisements
    return sim, sites, user


class TestSites:
    def test_access_requires_database(self):
        sim = Simulator()
        net = SimNetwork(sim)
        disc = CentralIndexDiscovery()
        p = Peer("p", net)
        disc.attach(p)
        disc.set_index(p)
        with pytest.raises(DatabaseError):
            DatabaseSite(p, disc, kinds=("data-access",))

    def test_unknown_kind_rejected(self):
        sim = Simulator()
        net = SimNetwork(sim)
        disc = CentralIndexDiscovery()
        p = Peer("p", net)
        disc.attach(p)
        disc.set_index(p)
        with pytest.raises(DatabaseError):
            DatabaseSite(p, disc, kinds=("data-teleport",))


class TestPipeline:
    def test_discovery_finds_all_stages(self):
        sim, sites, user = build_scenario()
        ev = user.discover_services()
        by_kind = sim.run(until=ev)
        assert len(by_kind["data-access"]) == 1
        assert len(by_kind["data-manipulate"]) == 2  # two candidate sites
        assert len(by_kind["data-visualise"]) == 1
        assert len(by_kind["data-verify"]) == 1

    def test_bind_prefers_accuracy(self):
        """"the user may be asked to select a service based on ...
        accuracy" — the default preference picks the accurate site."""
        sim, sites, user = build_scenario()
        by_kind = sim.run(until=user.discover_services())
        chosen = user.bind(by_kind)
        assert chosen["data-manipulate"]["site"] == "site-1"
        assert chosen["data-access"]["site"] == "site-0"

    def test_bind_custom_preference(self):
        sim, sites, user = build_scenario()
        by_kind = sim.run(until=user.discover_services())
        chosen = user.bind(by_kind, preference=lambda a: -a.get("accuracy", 0))
        assert chosen["data-manipulate"]["site"] == "site-0"

    def test_bind_missing_stage(self):
        sim, sites, user = build_scenario()
        by_kind = sim.run(until=user.discover_services())
        by_kind["data-verify"] = []
        with pytest.raises(DatabaseError):
            user.bind(by_kind)

    def test_end_to_end_pipeline(self):
        sim, sites, user = build_scenario()
        spec = QuerySpec(
            table="galaxies",
            where=(("mass", ">", 10.0),),
            manipulate=("sort_desc", "mass"),
            x_column="distance",
            y_column="mass",
            expect_min_rows=2,
        )
        done = run_pipeline(user, sites, spec)
        envelope = sim.run(until=done)
        assert envelope["report"]["ok"]
        assert envelope["table"].column("name") == ["m87", "m31", "ngc1234"]
        assert len(envelope["graph"].x) == 3
        # Trail records each geographic hop in pipeline order.
        assert [s.split("@")[0] for s in envelope["trail"]] == [
            "data-access", "data-manipulate", "data-visualise", "data-verify",
        ]
        assert [s.split("@")[1] for s in envelope["trail"]] == [
            "site-0", "site-1", "site-1", "site-2",
        ]

    def test_pipeline_verification_failure_reported(self):
        sim, sites, user = build_scenario()
        spec = QuerySpec(
            table="galaxies",
            where=(("mass", ">", 100.0),),  # matches nothing
            x_column="distance",
            y_column="mass",
            expect_min_rows=1,
        )
        envelope = sim.run(until=run_pipeline(user, sites, spec))
        assert not envelope["report"]["ok"]
        assert envelope["report"]["rows"] == 0
