"""Exp#12 (Fig. 23): storage-bottlenecked scenarios.

Disk bandwidth is throttled from 500 MB/s down to 250 MB/s while links
stay at 10 Gb/s (network/storage ratio 2.5 -> 5). ChameleonEC-IO, which
dispatches on idle *disk* bandwidth, overtakes plain ChameleonEC as the
disks become the bottleneck.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "ChameleonEC", "ChameleonEC-IO")
DISK_MBS = (250.0, 375.0, 500.0)


def grid(scale: float, seed: int):
    """Cells keyed ``(disk MB/s, algorithm)``."""
    for disk in DISK_MBS:
        config = ExperimentConfig.scaled(scale, seed=seed, disk_mbs=disk)
        for algorithm in ALGORITHMS:
            yield (disk, algorithm), run_repair_experiment(config, algorithm)


def rows(cells: dict) -> list[list]:
    """Table rows: throughput per disk bandwidth and algorithm."""
    return pivot_rows(
        cells, ALGORITHMS, lambda r: r.throughput_mbs, lambda d: f"disk {d:g} MB/s"
    )


SWEEP = Sweep("exp12_storage_bottleneck", grid, [
    ("Exp#12 / Fig 23: storage-bottlenecked throughput (MB/s)", ["disk bw", *ALGORITHMS],
     rows),
])
