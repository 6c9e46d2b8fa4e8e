"""Experiment running and reporting for the benchmark harness."""

from repro.analysis.breakdown import format_breakdown, latency_breakdown
from repro.analysis.experiments import (
    ExperimentResult,
    find_saturation_load,
    run_experiment,
    run_load_sweep,
    run_seed_sweep,
)
from repro.analysis.timeline import TimelineTracker, TimelineWindow
from repro.analysis.report import format_table
from repro.analysis.utilization import (
    UtilizationReport,
    UtilizationSnapshot,
    measure_utilization,
    snapshot_utilization,
)

__all__ = [
    "ExperimentResult",
    "TimelineTracker",
    "TimelineWindow",
    "find_saturation_load",
    "format_breakdown",
    "latency_breakdown",
    "run_seed_sweep",
    "UtilizationReport",
    "UtilizationSnapshot",
    "format_table",
    "measure_utilization",
    "snapshot_utilization",
    "run_experiment",
    "run_load_sweep",
]
