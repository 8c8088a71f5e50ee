"""Exp#7 (Fig. 18): repair performance with no foreground traffic.

Links are throttled from 1 Gb/s to 10 Gb/s (the paper uses
wondershaper); ChameleonEC still wins by balancing bandwidth across the
multi-chunk repair.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BANDWIDTHS_GBPS = (1.0, 4.0, 7.0, 10.0)


def run_exp07(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    bandwidths: tuple[float, ...] = BANDWIDTHS_GBPS,
) -> dict[tuple[float, str], RepairResult]:
    """Sweep link bandwidth without foreground; {(Gb/s, algo): result}."""
    results: dict[tuple[float, str], RepairResult] = {}
    for gbps_value in bandwidths:
        config = ExperimentConfig.scaled(scale, seed=seed, link_gbps=gbps_value)
        for algorithm in algorithms:
            results[(gbps_value, algorithm)] = run_repair_experiment(
                config, algorithm, foreground=False
            )
    return results


def rows(results: dict) -> list[list]:
    """Table rows: throughput per bandwidth and algorithm."""
    return pivot_rows(
        results, ALGORITHMS, lambda r: r.throughput_mbs, lambda bw: f"{bw:g} Gb/s"
    )


HEADERS = ["link bw", *ALGORITHMS]
TABLES = [("Exp#7 / Fig 18: no-foreground throughput (MB/s)", HEADERS, rows)]
