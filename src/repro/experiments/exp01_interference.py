"""Exp#1 (Fig. 12): repair throughput and P99 latency across four traces.

Replays YCSB-A, IBM-OS, Memcached, and Facebook-ETC as foreground
traffic while each algorithm repairs the same failed node; reports
repair throughput (MB/s) and foreground P99 latency (ms).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, pivot_rows, run_repair_experiment

TRACES = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")


def run_exp01(
    scale: float = 0.12,
    seed: int = 0,
    traces: tuple[str, ...] = TRACES,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> dict[tuple[str, str], RepairResult]:
    """Returns {(trace, algorithm): RepairResult} for the whole grid."""
    results: dict[tuple[str, str], RepairResult] = {}
    for trace in traces:
        for algorithm in algorithms:
            config = ExperimentConfig.scaled(scale, seed=seed, trace=trace)
            results[(trace, algorithm)] = run_repair_experiment(
                config, algorithm, trace=trace
            )
    return results


def rows_throughput(results: dict) -> list[list]:
    """Fig. 12(a) rows: throughput per trace and algorithm."""
    return pivot_rows(results, ALGORITHMS, lambda r: r.throughput_mbs, str)


def rows_p99(results: dict) -> list[list]:
    """Fig. 12(b) rows: P99 (ms) per trace and algorithm."""
    return pivot_rows(results, ALGORITHMS, lambda r: r.p99_latency * 1000, str)


HEADERS = ["trace", *ALGORITHMS]
TABLES = [
    ("Exp#1 / Fig 12(a): repair throughput (MB/s)", HEADERS, rows_throughput),
    ("Exp#1 / Fig 12(b): P99 latency (ms)", HEADERS, rows_p99),
]
