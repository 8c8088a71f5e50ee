"""Exp#7 (Fig. 18): repair performance with no foreground traffic.

Links are throttled from 1 Gb/s to 10 Gb/s (the paper uses
wondershaper); ChameleonEC still wins by balancing bandwidth across the
multi-chunk repair.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BANDWIDTHS_GBPS = (1.0, 4.0, 7.0, 10.0)


def grid(scale: float, seed: int):
    """Cells keyed ``(Gb/s, algorithm)``, no foreground traffic."""
    for gbps_value in BANDWIDTHS_GBPS:
        config = ExperimentConfig.scaled(scale, seed=seed, link_gbps=gbps_value)
        for algorithm in ALGORITHMS:
            yield (gbps_value, algorithm), run_repair_experiment(
                config, algorithm, foreground=False
            )


def rows(cells: dict) -> list[list]:
    """Table rows: throughput per bandwidth and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.throughput_mbs, lambda bw: f"{bw:g} Gb/s")


SWEEP = Sweep("exp07_no_foreground", grid, [
    ("Exp#7 / Fig 18: no-foreground throughput (MB/s)", ["link bw", *ALGORITHMS], rows),
])
