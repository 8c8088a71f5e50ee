"""The Section II-D motivation study (Fig. 4): interference vs #clients.

Runs CR, PPR, and ECPipe repairs while 0 to 4 YCSB-A clients replay
traffic; reports repair time and P99, plus the YCSB-only P99 baseline.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    WARMUP,
    RepairResult,
    Sweep,
    pivot_rows,
    run_repair_experiment,
    run_sim_until,
)
from repro.api import Testbed

ALGORITHMS = ("CR", "PPR", "ECPipe")
CLIENT_COUNTS = (0, 1, 2, 3, 4)


def repair_with_clients(config: ExperimentConfig, algorithm: str, clients: int) -> RepairResult:
    """One repair while ``clients`` YCSB-A clients replay traffic."""
    if clients == 0:
        return run_repair_experiment(config, algorithm, foreground=False)
    scenario = Testbed.build(config)
    scenario.start_foreground(num_clients=clients)
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + WARMUP)
    report = scenario.fail_nodes(1)
    repairer = scenario.make_repairer(algorithm)
    repairer.repair(report.failed_chunks)
    run_sim_until(scenario.cluster, lambda: repairer.done)
    scenario.stop_foreground()
    return RepairResult(
        algorithm=algorithm,
        trace=config.trace,
        repair_time=repairer.meter.elapsed,
        repaired_bytes=repairer.meter.repaired_bytes,
        chunks=len(report.failed_chunks),
        p99_latency=scenario.latency.p99,
    )


def grid(scale: float, seed: int):
    """Cells keyed ``(clients, algorithm)``, then the YCSB-only P99 under
    the key ``"ycsb_only_p99"`` (no repair at all)."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    for clients in CLIENT_COUNTS:
        for algorithm in ALGORITHMS:
            yield (clients, algorithm), repair_with_clients(config, algorithm, clients)
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + 20.0)
    scenario.stop_foreground()
    yield "ycsb_only_p99", scenario.latency.p99


def _repairs(cells: dict, min_clients: int) -> dict:
    return {
        key: cell for key, cell in cells.items()
        if isinstance(key, tuple) and key[0] >= min_clients
    }


def rows_repair_time(cells: dict) -> list[list]:
    """Fig. 4(a) rows: repair time per client count."""
    return pivot_rows(
        _repairs(cells, 0), ALGORITHMS, lambda r: r.repair_time, lambda c: f"C={c}"
    )


def rows_p99(cells: dict) -> list[list]:
    """Fig. 4(b) rows: P99 (ms) per client count."""
    return [["YCSB-Only", cells["ycsb_only_p99"] * 1000, "-", "-"]] + pivot_rows(
        _repairs(cells, 1), ALGORITHMS, lambda r: r.p99_latency * 1000, lambda c: f"C={c}"
    )


HEADERS = ["clients", *ALGORITHMS]
SWEEP = Sweep("fig4_motivation", grid, [
    ("Fig 4(a): repair time (s)", HEADERS, rows_repair_time),
    ("Fig 4(b): P99 (ms)", HEADERS, rows_p99),
])
