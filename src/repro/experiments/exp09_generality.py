"""Exp#9 (Fig. 20): generality across erasure codes.

RS(8,3) (Yahoo), RS(10,4) (Facebook f4), LRC(8,2,2), LRC(10,2,2), and
Butterfly(4,2). LRCs repair faster than RS for every algorithm (fewer
sources); Butterfly admits no elastic plan, so only CR and ChameleonEC
are compared and the ChameleonEC gain is small.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RepairResult, run_repair_experiment

CODES = ("RS(8,3)", "RS(10,4)", "LRC(8,2,2)", "LRC(10,2,2)", "Butterfly(4,2)")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
BUTTERFLY_ALGORITHMS = ("CR", "ChameleonEC")


def run_exp09(
    scale: float = 0.12,
    seed: int = 0,
    codes: tuple[str, ...] = CODES,
) -> dict[tuple[str, str], RepairResult]:
    """Repair under each erasure code; {(code, algo): result}."""
    results: dict[tuple[str, str], RepairResult] = {}
    for code in codes:
        algorithms = BUTTERFLY_ALGORITHMS if code.startswith("Butterfly") else ALGORITHMS
        config = ExperimentConfig.scaled(scale, seed=seed, code=code)
        for algorithm in algorithms:
            results[(code, algorithm)] = run_repair_experiment(config, algorithm)
    return results


def rows(results: dict) -> list[list]:
    """Table rows: throughput per code and algorithm."""
    codes = sorted({c for c, _ in results})
    out = []
    for code in codes:
        row = [code]
        for algorithm in ALGORITHMS:
            r = results.get((code, algorithm))
            row.append(r.throughput_mbs if r else "-")
        out.append(row)
    return out


HEADERS = ["code", *ALGORITHMS]
TABLES = [("Exp#9 / Fig 20: throughput by erasure code (MB/s)", HEADERS, rows)]
