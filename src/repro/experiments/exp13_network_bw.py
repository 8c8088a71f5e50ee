"""Exp#13 (Fig. 24): impact of network bandwidth (with foreground traffic).

Links sweep 1 Gb/s to 10 Gb/s. Throughput grows with bandwidth; the
relative ChameleonEC gain shrinks once storage I/O starts dominating.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BANDWIDTHS_GBPS = (1.0, 4.0, 7.0, 10.0)


def run_exp13(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    bandwidths: tuple[float, ...] = BANDWIDTHS_GBPS,
) -> dict[tuple[float, str], RepairResult]:
    """Sweep link bandwidth with foreground; {(Gb/s, algo): result}."""
    results: dict[tuple[float, str], RepairResult] = {}
    for gbps_value in bandwidths:
        config = ExperimentConfig.scaled(scale, seed=seed, link_gbps=gbps_value)
        for algorithm in algorithms:
            results[(gbps_value, algorithm)] = run_repair_experiment(config, algorithm)
    return results


def rows(results: dict) -> list[list]:
    """Table rows: one per bandwidth, throughput per algorithm."""
    return pivot_rows(
        results, ALGORITHMS, lambda r: r.throughput_mbs, lambda bw: f"{bw:g} Gb/s"
    )


HEADERS = ["link bw", *ALGORITHMS]
TABLES = [("Exp#13 / Fig 24: throughput vs link bandwidth (MB/s)", HEADERS, rows)]
