#!/usr/bin/env python
"""Case 3: a multi-site database pipeline (§3.6.3).

Three "geographic sites" join a Consumer Grid as workers, each
advertising what it offers: the archive hosts the flat-file catalogue,
data access and a rough manipulation service; a compute site an
accurate manipulation service and visualisation; a bureau verification.
The query's four stages form one ``p2p`` group, and each stage goes to
a site that offers it, the most accurate first.  The result flows
site → site → site before returning.

Run with::

    python examples/database_pipeline.py
"""

from repro import ConsumerGrid
from repro.analysis import render_kv, render_table
from repro.analysis.workloads import CASE3_GRID
from repro.apps.database import Database, QuerySpec, database_graph
from repro.service.worker import Site

CATALOGUE = """name, type, mass, distance
m31, spiral, 12.1, 0.78
m87, elliptical, 13.0, 16.4
ngc1300, spiral, 11.5, 18.7
lmc, irregular, 9.5, 0.05
smc, irregular, 9.0, 0.06
m104, spiral, 12.6, 9.55
m49, elliptical, 12.8, 17.1
"""


def main() -> None:
    # The archive site owns the flat-file catalogue.
    db = Database("galaxy-catalogue")
    loaded = db.load_csv("galaxies", CATALOGUE)
    sites = {
        "archive.cf.ac.uk": Site(
            "archive.cf.ac.uk", 0.6, ("data-access", "data-manipulate"),
            {"galaxies": db.table("galaxies")},
        ),
        "compute.gridlab.org": Site(
            "compute.gridlab.org", 0.9, ("data-manipulate", "data-visualise"),
        ),
        "verify.triana.co.uk": Site("verify.triana.co.uk", 0.8, ("data-verify",)),
    }
    grid = ConsumerGrid(CASE3_GRID, seed=9)
    for name, site in sites.items():
        grid.add_worker(name, site=site)
    grid.sim.run()  # let advertisements settle

    print(render_kv([("rows loaded from flat file", loaded),
                     ("sites", list(sites))],
                    title="== deployment =="))

    spec = QuerySpec(
        table="galaxies",
        where=(("type", "==", "spiral"), ("mass", ">", 11.0)),
        manipulate=("sort_desc", "mass"),
        x_column="distance",
        y_column="mass",
        expect_min_rows=2,
    )
    t0 = grid.sim.now
    report = grid.run(database_graph(spec), iterations=1)
    (result,) = report.group_results[0]

    print("\n" + render_table(
        ["stage", "site", "accuracy"],
        [(stage, worker, sites[worker].accuracy)
         for stage, worker in zip(("access", "manipulate", "visualise", "verify"),
                                  report.placements.values())],
        title="== placement: one site per pipeline stage ==",
    ))
    print("\n" + render_table(
        result.table.columns, result.table.rows,
        title="== query result (spiral galaxies, mass > 11, by mass desc) ==",
    ))
    print("\n" + render_kv([
        ("verification ok", result.report["ok"]),
        ("rows", result.report["rows"]),
        ("graph points", len(result.graph.x)),
        ("simulated wall time (s)", grid.sim.now - t0),
    ], title="== verification + visualisation =="))


if __name__ == "__main__":
    main()
