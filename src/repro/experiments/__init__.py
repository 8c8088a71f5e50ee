"""Experiment harnesses: one module per paper table/figure.

See DESIGN.md for the experiment-to-module index. Each module declares
one :class:`~repro.experiments.harness.Sweep` (``figures`` declares
three): ``SWEEP.run(scale, seed)`` measures its whole grid, and a small
``scale`` (the CLI's default is 0.08) completes it in minutes; pass
``scale=1.0`` for the paper's workload sizes.
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
