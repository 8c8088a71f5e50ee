"""Exp#13 (Fig. 24): impact of network bandwidth (with foreground traffic).

Links sweep 1 Gb/s to 10 Gb/s. Throughput grows with bandwidth; the
relative ChameleonEC gain shrinks once storage I/O starts dominating.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BANDWIDTHS_GBPS = (1.0, 4.0, 7.0, 10.0)


def grid(scale: float, seed: int):
    """Cells keyed ``(Gb/s, algorithm)``, with foreground traffic."""
    for gbps_value in BANDWIDTHS_GBPS:
        config = ExperimentConfig.scaled(scale, seed=seed, link_gbps=gbps_value)
        for algorithm in ALGORITHMS:
            yield (gbps_value, algorithm), run_repair_experiment(config, algorithm)


def rows(cells: dict) -> list[list]:
    """Table rows: one per bandwidth, throughput per algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.throughput_mbs, lambda bw: f"{bw:g} Gb/s")


SWEEP = Sweep("exp13_network_bw", grid, [
    ("Exp#13 / Fig 24: throughput vs link bandwidth (MB/s)", ["link bw", *ALGORITHMS], rows),
])
