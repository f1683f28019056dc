#!/usr/bin/env python
"""Case 3: a multi-site database pipeline (§3.6.3).

Three "geographic sites" host the four service kinds (data access with
the database, data manipulation, visualisation, verification).  A user
peer discovers candidates for every stage, selects by advertised
accuracy, service-binds the pipeline, and executes a query whose result
flows site → site → site before returning.

Run with::

    python examples/database_pipeline.py
"""

from repro.apps.database import (
    Database,
    DatabasePipeline,
    DatabaseSite,
    QuerySpec,
    run_pipeline,
)
from repro.analysis import render_kv, render_table
from repro.p2p import CentralIndexDiscovery, Peer, SimNetwork
from repro.simkernel import Simulator

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
    sim = Simulator(seed=9)
    net = SimNetwork(sim)
    discovery = CentralIndexDiscovery(query_window=1.0)
    index = Peer("index", net)
    discovery.attach(index)
    discovery.set_index(index)

    # The archive site owns the flat-file catalogue.
    db = Database("galaxy-catalogue")
    loaded = db.load_csv("galaxies", CATALOGUE)

    sites = []
    for peer_id, kwargs in [
        ("archive.cf.ac.uk", dict(database=db,
                                  kinds=("data-access", "data-manipulate"),
                                  accuracy=0.6)),
        ("compute.gridlab.org", dict(kinds=("data-manipulate", "data-visualise"),
                                     accuracy=0.9)),
        ("verify.triana.co.uk", dict(kinds=("data-verify",), accuracy=0.8)),
    ]:
        peer = Peer(peer_id, net)
        discovery.attach(peer)
        sites.append(DatabaseSite(peer, discovery, **kwargs))

    user_peer = Peer("user-laptop", net)
    discovery.attach(user_peer)
    user = DatabasePipeline(user_peer, discovery)
    sim.run()  # let advertisements settle

    print(render_kv([("rows loaded from flat file", loaded),
                     ("sites", [s.peer.peer_id for s in sites])],
                    title="== deployment =="))

    spec = QuerySpec(
        table="galaxies",
        where=(("type", "==", "spiral"), ("mass", ">", 11.0)),
        manipulate=("sort_desc", "mass"),
        x_column="distance",
        y_column="mass",
        expect_min_rows=2,
    )
    done = run_pipeline(user, sites, spec)
    envelope = sim.run(until=done)

    print("\n" + render_table(
        ["stage", "service", "site"],
        [(kind, name.split("@")[0], name.split("@")[1])
         for kind, name in zip(
             ("access", "manipulate", "visualise", "verify"),
             envelope["trail"])],
        title="== service-bind: one peer per pipeline stage ==",
    ))

    table = envelope["table"]
    print("\n" + render_table(
        table.columns, table.rows,
        title="== query result (spiral galaxies, mass > 11, by mass desc) ==",
    ))
    print("\n" + render_kv([
        ("verification ok", envelope["report"]["ok"]),
        ("rows", envelope["report"]["rows"]),
        ("graph points", len(envelope["graph"].x)),
        ("simulated wall time (s)", sim.now),
    ], title="== verification + visualisation =="))


if __name__ == "__main__":
    main()
