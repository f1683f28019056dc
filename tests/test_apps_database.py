"""Tests for the database-pipeline scenario (Case 3).

The pipeline runs on the grid: its four stages are one ``p2p`` group,
and each goes to a worker whose advertised :class:`Site` offers it.
"""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.analysis.workloads import CASE3_GRID
from repro.apps.database import (
    Database,
    DatabaseError,
    QuerySpec,
    apply_manipulation,
    apply_where,
    database_graph,
    verify_table,
    visualise_table,
)
from repro.core import TableData
from repro.service import SchedulingError
from repro.service.worker import Site

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
        ok = verify_table(t, expect_min_rows=3)
        assert ok["ok"] and ok["rows"] == 5
        bad = verify_table(t, expect_min_rows=10)
        assert not bad["ok"]
        assert "expected at least 10" in bad["problems"][0]


def sites(**changes):
    """Three sites: the archive hosts the table and a rough manipulation
    service, a compute site an accurate one and the visualisation, a
    bureau the verification.  ``changes`` replaces a site by name."""
    tables = {"galaxies": sample_db().table("galaxies")}
    out = {
        "site-0": Site("site-0", 0.6, ("data-access", "data-manipulate"), tables),
        "site-1": Site("site-1", 0.9, ("data-manipulate", "data-visualise")),
        "site-2": Site("site-2", 0.8, ("data-verify",)),
    }
    out.update(changes)
    return out


def build_scenario(**changes):
    """A grid of one plain volunteer plus the sites, settled."""
    grid = ConsumerGrid(CASE3_GRID, seed=31)
    for name, site in sites(**changes).items():
        grid.add_worker(name, site=site)
    grid.sim.run()  # settle advertisements
    return grid


SPEC = QuerySpec(
    table="galaxies",
    where=(("mass", ">", 10.0),),
    manipulate=("sort_desc", "mass"),
    x_column="distance",
    y_column="mass",
    expect_min_rows=2,
)


def run(grid, spec=SPEC):
    report = grid.run(database_graph(spec), iterations=1)
    (result,) = report.group_results[0]
    return report, result


class TestSites:
    def test_access_requires_database(self):
        # a site offering data access without the table is never chosen
        grid = build_scenario(**{"site-0": Site(
            "site-0", 0.6, ("data-access", "data-manipulate"))})
        with pytest.raises(SchedulingError, match="'Access'.*tables='galaxies'"):
            run(grid)

    def test_unknown_kind_rejected(self):
        # a stage whose service no site offers fails at deploy, by name
        grid = build_scenario(**{"site-2": Site("site-2", 0.8, ("data-teleport",))})
        with pytest.raises(SchedulingError, match="'Verify'.*services='data-verify'"):
            run(grid)
        assert grid.transport.stats.by_kind.get("triana-deploy", 0) == 0


class TestPipeline:
    def test_discovery_finds_all_stages(self):
        grid = build_scenario()
        grid.discover_workers()
        offered = {
            w: attrs.get("services", ()) for w, attrs in grid.controller.adverts.items()
        }
        assert offered == {
            "site-0": ("data-access", "data-manipulate"),
            "site-1": ("data-manipulate", "data-visualise"),
            "site-2": ("data-verify",),
            "worker-0": (),
        }
        assert grid.controller.adverts["site-0"]["tables"] == ("galaxies",)

    def test_bind_prefers_accuracy(self):
        """"the user may be asked to select a service based on ...
        accuracy" — the accurate site gets the manipulation."""
        report, _ = run(build_scenario())
        access, manipulate, _vis, _ver = report.placements.values()
        assert (access, manipulate) == ("site-0", "site-1")

    def test_bind_missing_stage(self):
        grid = build_scenario(**{"site-2": Site("site-2", 0.8)})
        with pytest.raises(SchedulingError, match="no worker advertises"):
            run(grid)

    def test_end_to_end_pipeline(self):
        report, result = run(build_scenario())
        assert result.report["ok"]
        assert result.table.column("name") == ["m87", "m31", "ngc1234"]
        assert len(result.graph.x) == 3
        # one geographic hop per stage, in pipeline order
        assert list(report.placements.values()) == [
            "site-0", "site-1", "site-1", "site-2",
        ]

    def test_pipeline_verification_failure_reported(self):
        spec = QuerySpec(
            table="galaxies",
            where=(("mass", ">", 100.0),),  # matches nothing
            x_column="distance",
            y_column="mass",
            expect_min_rows=1,
        )
        _, result = run(build_scenario(), spec)
        assert not result.report["ok"]
        assert result.report["rows"] == 0
