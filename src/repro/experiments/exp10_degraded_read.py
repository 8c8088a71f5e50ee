"""Exp#10 (Fig. 21): degraded-read performance.

A client requests a chunk on a failed node; the surviving chunks are
combined on the fly and delivered to the client (no persistence). The
metric is chunk size over the request-to-reconstruction latency. Larger
k narrows ChameleonEC's optimisation space (a repair touches half the
20-node testbed at k = 10).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sim_until
from repro.api import Testbed
from repro.repair.base import ConventionalRepair, ECPipe, PPR
from repro.repair.degraded import run_degraded_read

CODES = ("RS(6,3)", "RS(10,4)")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")
_BASELINES = {"CR": ConventionalRepair, "PPR": PPR, "ECPipe": ECPipe}


def degraded_read_throughput(
    config: ExperimentConfig, algorithm: str, *, foreground: bool = True
) -> float:
    """One degraded read under foreground traffic; returns MB/s."""
    scenario = Testbed.build(config)
    if foreground:
        scenario.start_foreground()
        scenario.cluster.sim.run(until=scenario.cluster.sim.now + 6.0)
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
    if foreground:
        scenario.stop_foreground()
    return read.throughput(config.chunk_size) / 1e6


def run_exp10(
    scale: float = 0.12,
    seed: int = 0,
    codes: tuple[str, ...] = CODES,
    algorithms: tuple[str, ...] = ALGORITHMS,
    reads: int = 3,
) -> dict[tuple[str, str], float]:
    """{(code, algorithm): mean degraded-read throughput MB/s}."""
    results: dict[tuple[str, str], float] = {}
    for code in codes:
        for algorithm in algorithms:
            samples = []
            for i in range(reads):
                config = ExperimentConfig.scaled(
                    scale, seed=seed + i, code=code, num_chunks=6
                )
                samples.append(degraded_read_throughput(config, algorithm))
            results[(code, algorithm)] = sum(samples) / len(samples)
    return results


def rows(results: dict) -> list[list]:
    """Table rows: degraded-read throughput per code and algorithm."""
    codes = sorted({c for c, _ in results})
    out = []
    for code in codes:
        out.append(
            [code]
            + [results.get((code, a), float("nan")) for a in ALGORITHMS]
        )
    return out


HEADERS = ["code", *ALGORITHMS]
TABLES = [("Exp#10 / Fig 21: degraded-read throughput (MB/s)", HEADERS, rows)]
