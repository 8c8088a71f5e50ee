"""Exp#3 (Fig. 14): ChameleonEC repair throughput versus T_phase.

The paper sweeps T_phase from 10 s to 40 s and observes gradually
declining throughput (larger phases react more slowly to bandwidth
changes). At ``scale < 1`` the same sweep is applied relative to the
scaled default phase length.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, run_repair_experiment

PAPER_PHASES = (10.0, 20.0, 30.0, 40.0)


def grid(scale: float, seed: int):
    """Cells keyed by paper T_phase: ChameleonEC's :class:`RepairResult`."""
    base = ExperimentConfig.scaled(scale, seed=seed)
    # The T_phase shape only shows when a repair spans several phases;
    # double the batch so even the longest phase setting needs a few.
    base = base.with_(num_chunks=base.num_chunks * 2)
    # Keep the paper's 10/20/30/40 ratios, anchored on the scaled default
    # (which corresponds to the paper's 20 s recommendation).
    factor = base.t_phase / 20.0
    for paper_value in PAPER_PHASES:
        config = base.with_(t_phase=paper_value * factor)
        yield paper_value, run_repair_experiment(config, "ChameleonEC")


def rows(cells: dict) -> list[list]:
    """Table rows: throughput and P99 per T_phase value."""
    return [
        [f"T_phase={int(p)}s", r.throughput_mbs, r.p99_latency * 1000]
        for p, r in sorted(cells.items())
    ]


SWEEP = Sweep("exp03_tphase", grid, [
    ("Exp#3 / Fig 14: ChameleonEC vs T_phase", ["T_phase", "throughput MB/s", "P99 ms"],
     rows),
])
