"""Exp#8 (Fig. 19): multi-node repair (1 to 3 concurrent node failures).

RS(10,4) tolerates up to four failures; throughput declines slightly as
nodes vanish (fewer dispatch targets, less aggregate bandwidth), and
ChameleonEC's advantage grows under the tighter bandwidth.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
FAILURE_COUNTS = (1, 2, 3)


def grid(scale: float, seed: int):
    """Cells keyed ``(failed nodes, algorithm)``."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    for failures in FAILURE_COUNTS:
        for algorithm in ALGORITHMS:
            yield (failures, algorithm), run_repair_experiment(
                config, algorithm, failed_nodes=failures
            )


def rows(cells: dict) -> list[list]:
    """Table rows: throughput per failure count and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.throughput_mbs, lambda n: f"{n} failed")


SWEEP = Sweep("exp08_multinode", grid, [
    ("Exp#8 / Fig 19: multi-node repair (MB/s)", ["failures", *ALGORITHMS], rows),
])
