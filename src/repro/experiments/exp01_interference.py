"""Exp#1 (Fig. 12): repair throughput and P99 latency across four traces.

Replays YCSB-A, IBM-OS, Memcached, and Facebook-ETC as foreground
traffic while each algorithm repairs the same failed node; reports
repair throughput (MB/s) and foreground P99 latency (ms).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

TRACES = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")


def grid(scale: float, seed: int):
    """Cells keyed ``(trace, algorithm)``: one :class:`RepairResult` each."""
    for trace in TRACES:
        config = ExperimentConfig.scaled(scale, seed=seed, trace=trace)
        for algorithm in ALGORITHMS:
            yield (trace, algorithm), run_repair_experiment(config, algorithm, trace=trace)


def rows_throughput(cells: dict) -> list[list]:
    """Fig. 12(a) rows: throughput per trace and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.throughput_mbs, str)


def rows_p99(cells: dict) -> list[list]:
    """Fig. 12(b) rows: P99 (ms) per trace and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.p99_latency * 1000, str)


HEADERS = ["trace", *ALGORITHMS]
SWEEP = Sweep("exp01_interference", grid, [
    ("Exp#1 / Fig 12(a): repair throughput (MB/s)", HEADERS, rows_throughput),
    ("Exp#1 / Fig 12(b): P99 latency (ms)", HEADERS, rows_p99),
])
