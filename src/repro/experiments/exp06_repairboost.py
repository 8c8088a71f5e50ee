"""Exp#6 (Fig. 17): baselines boosted by RepairBoost vs ChameleonEC.

RepairBoost balances repair traffic statically; ChameleonEC should still
win because RB-boosted algorithms keep their fixed plan structures and
ignore idle bandwidth.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, run_repair_experiment

ALGORITHMS = ("RB+CR", "RB+PPR", "RB+ECPipe", "ChameleonEC")


def run_exp06(
    scale: float = 0.12, seed: int = 0, algorithms: tuple[str, ...] = ALGORITHMS
) -> dict[str, RepairResult]:
    """RB-boosted baselines vs ChameleonEC; {algo: result}."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    return {
        algorithm: run_repair_experiment(config, algorithm)
        for algorithm in algorithms
    }


def rows(results: dict[str, RepairResult]) -> list[list]:
    """Table rows: throughput and P99 per algorithm."""
    return [
        [name, r.throughput_mbs, r.p99_latency * 1000]
        for name, r in results.items()
    ]


HEADERS = ["algorithm", "throughput MB/s", "P99 ms"]
TABLES = [("Exp#6 / Fig 17: RepairBoost vs ChameleonEC", HEADERS, rows)]
