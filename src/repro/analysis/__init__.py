"""Analysis harness (system S10): metrics, tables, the run table and its runner."""

from .experiments import EXPERIMENTS, simulate_volunteer_fleet
from .metrics import (
    SECONDS_PER_YEAR,
    parallel_efficiency,
    spectrum_snr,
    speedup,
)
from .runtable import REL_TOL, Experiment, diff, result_path, run_batch, run_one, store
from .tables import fmt, render_kv, render_table
from .workloads import HOSTILE_LAN, LAN_GRID, fig1_graph, fig1_grouped, pipeline_graph

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "HOSTILE_LAN",
    "LAN_GRID",
    "REL_TOL",
    "SECONDS_PER_YEAR",
    "diff",
    "fig1_graph",
    "fig1_grouped",
    "fmt",
    "parallel_efficiency",
    "pipeline_graph",
    "render_kv",
    "render_table",
    "result_path",
    "run_batch",
    "run_one",
    "simulate_volunteer_fleet",
    "spectrum_snr",
    "speedup",
    "store",
]
