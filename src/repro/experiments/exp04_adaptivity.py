"""Exp#4 (Fig. 15): adaptivity under dynamically transitioning traces.

Each client cycles through the four traces (the paper switches every
15 s); the measured output is a repair-throughput time series per
algorithm plus the overall average.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
TRACE_CYCLE = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")


def run_exp04(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    segment_seconds: float | None = None,
) -> dict[str, RepairResult]:
    """Returns {algorithm: RepairResult}; extras carry the time series."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    segment = (
        segment_seconds
        if segment_seconds is not None
        else max(2.0, 15.0 * config.t_phase / 20.0)
    )
    segments = [(segment, name) for name in TRACE_CYCLE]
    results: dict[str, RepairResult] = {}
    for algorithm in algorithms:
        result = run_repair_experiment(
            config, algorithm, transition_segments=segments
        )
        meter = result.extras["meter"]
        result.extras["series"] = meter.windowed_throughput(window=segment / 3)
        results[algorithm] = result
    return results


def rows(results: dict[str, RepairResult]) -> list[list]:
    """Table rows: average throughput and repair time per algorithm."""
    return [
        [name, r.throughput_mbs, r.repair_time] for name, r in results.items()
    ]


def series_rows(results: dict[str, RepairResult], points: int = 8) -> list[list]:
    """First ``points`` samples of each algorithm's throughput series."""
    out = []
    for name, result in results.items():
        series = result.extras.get("series", [])[:points]
        out.append([name] + [bw / 1e6 for _, bw in series])
    return out


HEADERS = ["algorithm", "throughput MB/s", "repair time s"]
SERIES_HEADERS = ["algorithm"] + [f"w{i}" for i in range(8)]
TABLES = [
    ("Exp#4 / Fig 15: average throughput under trace transitions", HEADERS, rows),
    ("Exp#4 / Fig 15: throughput series (MB/s)", SERIES_HEADERS, series_rows),
]
