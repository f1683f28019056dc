"""repro — reproduction of "Supporting Peer-2-Peer Interactions in the
Consumer Grid" (Taylor, Rana, Philp, Wang, Shields — IPPS 2003).

A Triana-like visual-workflow system deployed peer-to-peer over a
simulated consumer network, with code mobility, sandboxed execution,
JXTA-style discovery/pipes, volunteer availability models, and the
paper's three application scenarios.

Subsystems (see DESIGN.md):

===================  ========================================================
``repro.simkernel``  deterministic discrete-event simulation kernel
``repro.p2p``        consumer network, peers, discovery, pipes, JXTAServe
``repro.core``       workflow engine: types, units, task graphs, XML, toolbox
``repro.mobility``   module repository, on-demand download, sandbox
``repro.resources``  volunteer availability, accounts
``repro.service``    Triana worker services + controller (distribution)
``repro.faults``     chaos layer: declarative fault plans + injector
``repro.observe``    tracing + telemetry + trace exporters (observability)
``repro.apps``       galaxy formation, inspiral search, database scenarios
``repro.analysis``   metrics and table harness for the benchmarks
===================  ========================================================

Quickstart::

    from repro import ConsumerGrid, TaskGraph

    g = TaskGraph("fig1")
    g.add_task("Wave", "Wave", frequency=64.0)
    g.add_task("Gaussian", "GaussianNoise", sigma=2.0)
    g.add_task("FFT", "FFT")
    g.add_task("Power", "PowerSpectrum")
    g.add_task("Accum", "AccumStat")
    g.add_task("Grapher", "Grapher")
    for a, b in [("Wave", "Gaussian"), ("Gaussian", "FFT"),
                 ("FFT", "Power"), ("Power", "Accum"), ("Accum", "Grapher")]:
        g.connect(a, 0, b, 0)
    g.group_tasks("GroupTask", ["Gaussian", "FFT"], policy="parallel")

    grid = ConsumerGrid(n_workers=4, seed=42)
    report = grid.run(g, iterations=20, probes=("Accum",))
"""

from . import apps  # noqa: F401  (registers scenario units)
from .core import (
    GraphError,
    LocalEngine,
    SampleSet,
    Spectrum,
    TaskGraph,
    TypeMismatchError,
    Unit,
    UnitRegistry,
    global_registry,
    graph_from_string,
    graph_to_string,
)
from .faults import Fault, FaultInjector, FaultPlan, chaos
from .grid import ConsumerGrid
from .observe import NullTracer, Tracer, write_trace
from .service import (
    HeartbeatFailureDetector,
    RunReport,
    TrianaController,
    TrianaService,
)
from .simkernel import Simulator

__version__ = "1.0.0"

__all__ = [
    "ConsumerGrid",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "GraphError",
    "HeartbeatFailureDetector",
    "LocalEngine",
    "NullTracer",
    "RunReport",
    "SampleSet",
    "Simulator",
    "Tracer",
    "Spectrum",
    "TaskGraph",
    "TrianaController",
    "TrianaService",
    "TypeMismatchError",
    "Unit",
    "UnitRegistry",
    "__version__",
    "chaos",
    "global_registry",
    "graph_from_string",
    "graph_to_string",
    "write_trace",
]
