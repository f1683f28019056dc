"""Canonical workload builders shared by examples, tests and benchmarks."""

from __future__ import annotations

from ..apps import database as db
from ..config import GridConfig
from ..core.taskgraph import TaskGraph
from ..core.units import SITE_READ
from ..mobility.sandbox import DEFAULT_PERMISSIONS, SandboxPolicy
from ..p2p.network import LAN_PROFILE
from ..service.worker import Site

__all__ = [
    "CASE3_GRID", "HOSTILE_LAN", "LAN_GRID", "case3_graph", "case3_sites",
    "fig1_graph", "fig1_grouped", "pipeline_graph",
]

#: The compute-bound grid the experiments share: LAN links, so transfers
#: cost next to nothing, and workers slowed until unit compute dominates
#: (mid-run faults and churn then actually interrupt work).
LAN_GRID = GridConfig().replace(
    worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
    worker_efficiency=1e-5,
)

#: The same grid braced for volunteers that misbehave mid-run (E15's churn,
#: E17's saboteurs): six workers under a 1 s heartbeat, suspected after two
#: misses, undelivered work retried every 2 s for up to 30 s.
HOSTILE_LAN = LAN_GRID.replace(
    n_workers=6, seed=900, heartbeat_interval=1.0, suspect_after_missed=2,
    retry_timeout=30.0, retry_interval=2.0,
)


def fig1_graph() -> TaskGraph:
    """The paper's Fig. 1 network: Wave → GaussianNoise → FFT →
    PowerSpectrum → AccumStat → Grapher."""
    g = TaskGraph("fig1")
    g.add_task("Wave", "Wave", frequency=64.0, amplitude=0.2,
               samples=1024, sampling_rate=1024.0)
    g.add_task("Gaussian", "GaussianNoise", sigma=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Accum", "AccumStat")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gaussian"), ("Gaussian", "FFT"), ("FFT", "Power"),
                 ("Power", "Accum"), ("Accum", "Grapher")]:
        g.connect(a, 0, b, 0)
    return g


def fig1_grouped(policy: str = "parallel") -> TaskGraph:
    """Fig. 1 with Code Segment 1's GroupTask (Gaussian + FFT) formed."""
    g = fig1_graph()
    g.group_tasks("GroupTask", ["Gaussian", "FFT"], policy=policy)
    return g


def pipeline_graph(n_stages: int, samples: int = 4096) -> TaskGraph:
    """Fig. 4's 'simple distributed pipelined linear network': a source,
    ``n_stages`` filter stages grouped with the p2p policy, and a sink."""
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    g = TaskGraph(f"pipeline-{n_stages}")
    g.add_task("Source", "Wave", samples=samples)
    stage_names = []
    prev = "Source"
    for i in range(n_stages):
        name = f"Stage{i}"
        # Alternate filters so stages are distinct but same-cost.
        if i % 2 == 0:
            g.add_task(name, "LowPass", cutoff=400.0 - i)
        else:
            g.add_task(name, "HighPass", cutoff=1.0 + i)
        g.connect(prev, 0, name, 0)
        prev = name
        stage_names.append(name)
    g.add_task("Sink", "Grapher")
    g.connect(prev, 0, "Sink", 0)
    g.group_tasks("Chain", stage_names, policy="p2p")
    return g


#: Case 3's grid (E6): one plain volunteer, to which the sites are added
#: (:func:`case3_sites`); every sandbox lets a stage read its site's tables.
CASE3_GRID = GridConfig().replace(
    seed=11, n_workers=1,
    sandbox=SandboxPolicy(granted=DEFAULT_PERMISSIONS | {SITE_READ}),
)

_CATALOGUE = "name, kind, mass\n" + "\n".join(
    f"gal{i:03d}, {'spiral' if i % 2 else 'elliptical'}, {9.0 + (i % 40) / 10}"
    for i in range(200)
)


def case3_sites() -> dict[str, Site]:
    """Three sites, named as their workers: the archive hosts the galaxy
    catalogue and a rough manipulation service, a compute site an
    accurate one and the visualisation, a bureau the verification."""
    catalogue = db.Database()
    catalogue.load_csv("galaxies", _CATALOGUE)
    tables = {"galaxies": catalogue.table("galaxies")}
    return {
        "site-a": Site("site-a", 0.5, ("data-access", "data-manipulate"), tables),
        "site-b": Site("site-b", 0.9, ("data-manipulate", "data-visualise")),
        "site-c": Site("site-c", 0.7, ("data-verify",)),
    }


def case3_graph() -> TaskGraph:
    """The top ten spirals above 10^11 solar masses, plotted and checked."""
    return db.database_graph(db.QuerySpec(
        table="galaxies",
        where=(("kind", "==", "spiral"), ("mass", ">", 11.0)),
        manipulate=("topk", "mass", 10),
        x_column="mass",
        y_column="mass",
        expect_min_rows=5,
    ))
