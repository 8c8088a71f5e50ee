"""Exp#2 (Fig. 13): interference degree — trace slowdown under repair.

For each trace, measures the execution time of a fixed request batch
without repair (``T``) and under each repair algorithm (``T*``); the
interference degree is ``T*/T - 1``.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    pivot_rows,
    run_trace_only,
    run_trace_with_repair,
)
from repro.metrics.interference import interference_degree

TRACES = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")


def run_exp02(
    scale: float = 0.12,
    seed: int = 0,
    traces: tuple[str, ...] = TRACES,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> dict[tuple[str, str], float]:
    """Returns {(trace, algorithm): interference degree}."""
    requests = max(150, int(6000 * scale))
    results: dict[tuple[str, str], float] = {}
    for trace in traces:
        config = ExperimentConfig.scaled(scale, seed=seed, trace=trace)
        baseline = run_trace_only(
            config, requests_per_client=requests, trace=trace
        )
        for algorithm in algorithms:
            with_repair, _ = run_trace_with_repair(
                config, algorithm, requests_per_client=requests, trace=trace
            )
            results[(trace, algorithm)] = interference_degree(with_repair, baseline)
    return results


def rows(results: dict) -> list[list]:
    """Table rows: interference degree per trace and algorithm."""
    return pivot_rows(results, ALGORITHMS, lambda degree: degree, str)


HEADERS = ["trace", *ALGORITHMS]
TABLES = [("Exp#2 / Fig 13: interference degree", HEADERS, rows)]
