"""Exp#6 (Fig. 17): baselines boosted by RepairBoost vs ChameleonEC.

RepairBoost balances repair traffic statically; ChameleonEC should still
win because RB-boosted algorithms keep their fixed plan structures and
ignore idle bandwidth.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, run_repair_experiment

ALGORITHMS = ("RB+CR", "RB+PPR", "RB+ECPipe", "ChameleonEC")


def grid(scale: float, seed: int):
    """Cells keyed by algorithm: RB-boosted baselines, then ChameleonEC."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    for algorithm in ALGORITHMS:
        yield algorithm, run_repair_experiment(config, algorithm)


def rows(cells: dict) -> list[list]:
    """Table rows: throughput and P99 per algorithm."""
    return [[name, r.throughput_mbs, r.p99_latency * 1000] for name, r in cells.items()]


SWEEP = Sweep("exp06_repairboost", grid, [
    ("Exp#6 / Fig 17: RepairBoost vs ChameleonEC",
     ["algorithm", "throughput MB/s", "P99 ms"], rows),
])
