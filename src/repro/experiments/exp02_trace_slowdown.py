"""Exp#2 (Fig. 13): interference degree — trace slowdown under repair.

For each trace, measures the execution time of a fixed request batch
without repair (``T``) and under each repair algorithm (``T*``); the
interference degree is ``T*/T - 1``.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    Sweep,
    pivot_rows,
    run_trace_only,
    run_trace_with_repair,
)
from repro.metrics.interference import interference_degree

TRACES = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")


def grid(scale: float, seed: int):
    """Cells keyed ``(trace, algorithm)``: the interference degree."""
    requests = max(150, int(6000 * scale))
    for trace in TRACES:
        config = ExperimentConfig.scaled(scale, seed=seed, trace=trace)
        baseline = run_trace_only(config, requests_per_client=requests, trace=trace)
        for algorithm in ALGORITHMS:
            with_repair, _ = run_trace_with_repair(
                config, algorithm, requests_per_client=requests, trace=trace
            )
            yield (trace, algorithm), interference_degree(with_repair, baseline)


def rows(cells: dict) -> list[list]:
    """Table rows: interference degree per trace and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda degree: degree, str)


SWEEP = Sweep("exp02_trace_slowdown", grid, [
    ("Exp#2 / Fig 13: interference degree", ["trace", *ALGORITHMS], rows),
])
