"""Exp#4 (Fig. 15): adaptivity under dynamically transitioning traces.

Each client cycles through the four traces (the paper switches every
15 s); the measured output is a repair-throughput time series per
algorithm plus the overall average.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
TRACE_CYCLE = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")

#: Throughput-series samples shown per algorithm.
POINTS = 8


def grid(scale: float, seed: int):
    """Cells keyed by algorithm; each result's extras carry the series."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    segment = max(2.0, 15.0 * config.t_phase / 20.0)
    segments = [(segment, name) for name in TRACE_CYCLE]
    for algorithm in ALGORITHMS:
        result = run_repair_experiment(config, algorithm, transition_segments=segments)
        meter = result.extras["meter"]
        result.extras["series"] = meter.windowed_throughput(window=segment / 3)
        yield algorithm, result


def rows(cells: dict) -> list[list]:
    """Table rows: average throughput and repair time per algorithm."""
    return [[name, r.throughput_mbs, r.repair_time] for name, r in cells.items()]


def series_rows(cells: dict) -> list[list]:
    """First ``POINTS`` samples of each algorithm's throughput series."""
    return [
        [name] + [bw / 1e6 for _, bw in r.extras.get("series", [])[:POINTS]]
        for name, r in cells.items()
    ]


SWEEP = Sweep("exp04_adaptivity", grid, [
    ("Exp#4 / Fig 15: average throughput under trace transitions",
     ["algorithm", "throughput MB/s", "repair time s"], rows),
    ("Exp#4 / Fig 15: throughput series (MB/s)",
     ["algorithm"] + [f"w{i}" for i in range(POINTS)], series_rows),
])
