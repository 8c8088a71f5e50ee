"""Exp#3 (Fig. 14): ChameleonEC repair throughput versus T_phase.

The paper sweeps T_phase from 10 s to 40 s and observes gradually
declining throughput (larger phases react more slowly to bandwidth
changes). At ``scale < 1`` the same sweep is applied relative to the
scaled default phase length.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, run_repair_experiment

PAPER_PHASES = (10.0, 20.0, 30.0, 40.0)


def run_exp03(
    scale: float = 0.12, seed: int = 0, phases: tuple[float, ...] = PAPER_PHASES
) -> dict[float, RepairResult]:
    """Returns {paper T_phase: RepairResult} for ChameleonEC."""
    base = ExperimentConfig.scaled(scale, seed=seed)
    # The T_phase shape only shows when a repair spans several phases;
    # double the batch so even the longest phase setting needs a few.
    base = base.with_(num_chunks=base.num_chunks * 2)
    # Keep the paper's 10/20/30/40 ratios, anchored on the scaled default
    # (which corresponds to the paper's 20 s recommendation).
    factor = base.t_phase / 20.0
    results: dict[float, RepairResult] = {}
    for paper_value in phases:
        config = base.with_(t_phase=paper_value * factor)
        results[paper_value] = run_repair_experiment(config, "ChameleonEC")
    return results


def rows(results: dict[float, RepairResult]) -> list[list]:
    """Table rows: throughput and P99 per T_phase value."""
    return [
        [f"T_phase={int(p)}s", r.throughput_mbs, r.p99_latency * 1000]
        for p, r in sorted(results.items())
    ]


HEADERS = ["T_phase", "throughput MB/s", "P99 ms"]
TABLES = [("Exp#3 / Fig 14: ChameleonEC vs T_phase", HEADERS, rows)]
