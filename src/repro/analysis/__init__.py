"""Analysis harness (system S10): metrics, tables, experiment runners."""

from .experiments import (
    e1_workflow_roundtrip,
    e2_accumstat_snr,
    e3_pipeline_throughput,
    e4_galaxy_speedup,
    e5_inspiral_sizing,
    e7_discovery_scaling,
    e8_mobility,
    e9_volunteer_throughput,
    e10_policy_ablation,
    e14_split_axis,
    e18_moddist,
    simulate_volunteer_fleet,
)
from .metrics import (
    SECONDS_PER_YEAR,
    cpu_years,
    parallel_efficiency,
    spectrum_snr,
    speedup,
)
from .tables import fmt, render_kv, render_table
from .workloads import LAN_GRID, fig1_graph, fig1_grouped, pipeline_graph

__all__ = [
    "LAN_GRID",
    "SECONDS_PER_YEAR",
    "cpu_years",
    "e10_policy_ablation",
    "e14_split_axis",
    "e18_moddist",
    "e1_workflow_roundtrip",
    "e2_accumstat_snr",
    "e3_pipeline_throughput",
    "e4_galaxy_speedup",
    "e5_inspiral_sizing",
    "e7_discovery_scaling",
    "e8_mobility",
    "e9_volunteer_throughput",
    "fig1_graph",
    "fig1_grouped",
    "fmt",
    "parallel_efficiency",
    "pipeline_graph",
    "render_kv",
    "render_table",
    "simulate_volunteer_fleet",
    "spectrum_snr",
    "speedup",
]
