"""Experiment harnesses: one module per paper table/figure.

See DESIGN.md for the experiment-to-module index. Every ``run_*``
function accepts ``scale`` (default ~0.12) so the whole grid completes
in minutes; pass ``scale=1.0`` plus ``ExperimentConfig.paper()`` values
for full-scale replication.
"""

from repro.experiments.algorithms import ALL_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    RepairResult,
    format_table,
    run_repair_experiment,
    run_sim_until,
    run_trace_only,
    run_trace_with_repair,
)

__all__ = [
    "ALL_ALGORITHMS",
    "ExperimentConfig",
    "RepairResult",
    "format_table",
    "run_repair_experiment",
    "run_sim_until",
    "run_trace_only",
    "run_trace_with_repair",
]
