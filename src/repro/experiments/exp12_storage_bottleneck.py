"""Exp#12 (Fig. 23): storage-bottlenecked scenarios.

Disk bandwidth is throttled from 500 MB/s down to 250 MB/s while links
stay at 10 Gb/s (network/storage ratio 2.5 -> 5). ChameleonEC-IO, which
dispatches on idle *disk* bandwidth, overtakes plain ChameleonEC as the
disks become the bottleneck.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "ChameleonEC", "ChameleonEC-IO")
DISK_MBS = (250.0, 375.0, 500.0)


def run_exp12(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    disk_bandwidths: tuple[float, ...] = DISK_MBS,
) -> dict[tuple[float, str], RepairResult]:
    """Sweep disk bandwidth; {(MB/s, algo): result}."""
    results: dict[tuple[float, str], RepairResult] = {}
    for disk in disk_bandwidths:
        config = ExperimentConfig.scaled(scale, seed=seed, disk_mbs=disk)
        for algorithm in algorithms:
            results[(disk, algorithm)] = run_repair_experiment(config, algorithm)
    return results


def rows(results: dict) -> list[list]:
    """Table rows: throughput per disk bandwidth and algorithm."""
    return pivot_rows(
        results, ALGORITHMS, lambda r: r.throughput_mbs, lambda d: f"disk {d:g} MB/s"
    )


HEADERS = ["disk bw", *ALGORITHMS]
TABLES = [("Exp#12 / Fig 23: storage-bottlenecked throughput (MB/s)", HEADERS, rows)]
