"""Exp#8 (Fig. 19): multi-node repair (1 to 3 concurrent node failures).

RS(10,4) tolerates up to four failures; throughput declines slightly as
nodes vanish (fewer dispatch targets, less aggregate bandwidth), and
ChameleonEC's advantage grows under the tighter bandwidth.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
FAILURE_COUNTS = (1, 2, 3)


def run_exp08(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    failure_counts: tuple[int, ...] = FAILURE_COUNTS,
) -> dict[tuple[int, str], RepairResult]:
    """Repair with 1-3 failed nodes; {(count, algo): result}."""
    results: dict[tuple[int, str], RepairResult] = {}
    for failures in failure_counts:
        config = ExperimentConfig.scaled(scale, seed=seed)
        for algorithm in algorithms:
            results[(failures, algorithm)] = run_repair_experiment(
                config, algorithm, failed_nodes=failures
            )
    return results


def rows(results: dict) -> list[list]:
    """Table rows: throughput per failure count and algorithm."""
    return pivot_rows(
        results, ALGORITHMS, lambda r: r.throughput_mbs, lambda n: f"{n} failed"
    )


HEADERS = ["failures", *ALGORITHMS]
TABLES = [("Exp#8 / Fig 19: multi-node repair (MB/s)", HEADERS, rows)]
