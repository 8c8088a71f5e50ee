"""Exp#10 (Fig. 21): degraded-read performance.

A client requests a chunk on a failed node; the surviving chunks are
combined on the fly and delivered to the client (no persistence). The
metric is chunk size over the request-to-reconstruction latency. Larger
k narrows ChameleonEC's optimisation space (a repair touches half the
20-node testbed at k = 10).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import WARMUP, Sweep, pivot_rows, run_sim_until
from repro.api import Testbed
from repro.repair.base import ConventionalRepair, ECPipe, PPR
from repro.repair.degraded import run_degraded_read

CODES = ("RS(6,3)", "RS(10,4)")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
_BASELINES = {"CR": ConventionalRepair, "PPR": PPR, "ECPipe": ECPipe}

#: Degraded reads per cell, one per seed from ``seed`` up.
READS = 3


def degraded_read_throughput(config: ExperimentConfig, algorithm: str) -> float:
    """One degraded read under foreground traffic; returns MB/s."""
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + WARMUP)
    report = scenario.fail_nodes(1)
    chunk = report.failed_chunks[0]
    client = scenario.cluster.clients[0].id
    if algorithm in _BASELINES:
        read, _ = run_degraded_read(
            scenario.cluster, scenario.store, scenario.injector, chunk, client,
            algorithm=_BASELINES[algorithm](seed=config.seed + 1),
            slice_size=config.slice_size,
        )
    else:
        read, _ = run_degraded_read(
            scenario.cluster, scenario.store, scenario.injector, chunk, client,
            monitor=scenario.monitor, slice_size=config.slice_size,
        )
    run_sim_until(
        scenario.cluster, lambda: read.completed_at is not None, step=0.5
    )
    scenario.stop_foreground()
    return read.throughput(config.chunk_size) / 1e6


def grid(scale: float, seed: int):
    """Cells keyed ``(code, algorithm)``: mean MB/s over ``READS`` seeds."""
    for code in CODES:
        for algorithm in ALGORITHMS:
            samples = [
                degraded_read_throughput(
                    ExperimentConfig.scaled(scale, seed=seed + i, code=code, num_chunks=6),
                    algorithm,
                )
                for i in range(READS)
            ]
            yield (code, algorithm), sum(samples) / len(samples)


def rows(cells: dict) -> list[list]:
    """Table rows: degraded-read throughput per code and algorithm."""
    return pivot_rows(cells, ALGORITHMS, lambda mbs: mbs, str)


SWEEP = Sweep("exp10_degraded_read", grid, [
    ("Exp#10 / Fig 21: degraded-read throughput (MB/s)", ["code", *ALGORITHMS], rows),
])
