"""Exp#9 (Fig. 20): generality across erasure codes.

RS(8,3) (Yahoo), RS(10,4) (Facebook f4), LRC(8,2,2), LRC(10,2,2), and
Butterfly(4,2). LRCs repair faster than RS for every algorithm (fewer
sources); Butterfly admits no elastic plan, so only CR and ChameleonEC
are compared and the ChameleonEC gain is small.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, pivot_rows, run_repair_experiment

CODES = ("RS(8,3)", "RS(10,4)", "LRC(8,2,2)", "LRC(10,2,2)", "Butterfly(4,2)")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BUTTERFLY_ALGORITHMS = ("CR", "ChameleonEC")


def algorithms_for(code: str) -> tuple[str, ...]:
    """The algorithms compared under ``code`` (Butterfly has no elastic plan)."""
    return BUTTERFLY_ALGORITHMS if code.startswith("Butterfly") else ALGORITHMS


def grid(scale: float, seed: int):
    """Cells keyed ``(code, algorithm)``."""
    for code in CODES:
        config = ExperimentConfig.scaled(scale, seed=seed, code=code)
        for algorithm in algorithms_for(code):
            yield (code, algorithm), run_repair_experiment(config, algorithm)


def rows(cells: dict) -> list[list]:
    """Table rows: throughput per code and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda r: r.throughput_mbs, str)


SWEEP = Sweep("exp09_generality", grid, [
    ("Exp#9 / Fig 20: throughput by erasure code (MB/s)", ["code", *ALGORITHMS], rows),
])
