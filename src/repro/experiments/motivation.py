"""The Section II-D motivation study (Fig. 4): interference vs #clients.

Runs CR, PPR, and ECPipe repairs while 0 to 4 YCSB-A clients replay
traffic; reports repair time and P99, plus the YCSB-only P99 baseline.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    RepairResult,
    run_repair_experiment,
    run_sim_until,
)
from repro.api import Testbed

ALGORITHMS = ("CR", "PPR", "ECPipe")
CLIENT_COUNTS = (0, 1, 2, 3, 4)


def run_motivation(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ALGORITHMS,
    client_counts: tuple[int, ...] = CLIENT_COUNTS,
) -> dict:
    """Returns {"repair": {(clients, algo): RepairResult},
                 "ycsb_only_p99": float}."""
    repair: dict[tuple[int, str], RepairResult] = {}
    for clients in client_counts:
        for algorithm in algorithms:
            config = ExperimentConfig.scaled(scale, seed=seed)
            if clients == 0:
                result = run_repair_experiment(config, algorithm, foreground=False)
            else:
                scenario = Testbed.build(config)
                scenario.start_foreground(num_clients=clients)
                scenario.cluster.sim.run(until=scenario.cluster.sim.now + 6.0)
                report = scenario.fail_nodes(1)
                repairer = scenario.make_repairer(algorithm)
                repairer.repair(report.failed_chunks)
                run_sim_until(scenario.cluster, lambda: repairer.done)
                scenario.stop_foreground()
                result = RepairResult(
                    algorithm=algorithm,
                    trace=config.trace,
                    repair_time=repairer.meter.elapsed,
                    repaired_bytes=repairer.meter.repaired_bytes,
                    chunks=len(report.failed_chunks),
                    p99_latency=scenario.latency.p99,
                )
            repair[(clients, algorithm)] = result

    # YCSB-only latency baseline (no repair at all).
    config = ExperimentConfig.scaled(scale, seed=seed)
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + 20.0)
    scenario.stop_foreground()
    return {"repair": repair, "ycsb_only_p99": scenario.latency.p99}


def rows_repair_time(results: dict) -> list[list]:
    """Fig. 4(a) rows: repair time per client count."""
    repair = results["repair"]
    counts = sorted({c for c, _ in repair})
    out = []
    for clients in counts:
        out.append(
            [f"C={clients}"]
            + [
                repair[(clients, a)].repair_time if (clients, a) in repair else "-"
                for a in ALGORITHMS
            ]
        )
    return out


def rows_p99(results: dict) -> list[list]:
    """Fig. 4(b) rows: P99 (ms) per client count."""
    repair = results["repair"]
    counts = sorted({c for c, _ in repair if c > 0})
    out = [["YCSB-Only", results["ycsb_only_p99"] * 1000, "-", "-"]]
    for clients in counts:
        out.append(
            [f"C={clients}"]
            + [
                repair[(clients, a)].p99_latency * 1000
                if (clients, a) in repair
                else "-"
                for a in ALGORITHMS
            ]
        )
    return out


HEADERS = ["clients", *ALGORITHMS]
TABLES = [
    ("Fig 4(a): repair time (s)", HEADERS, rows_repair_time),
    ("Fig 4(b): P99 (ms)", HEADERS, rows_p99),
]
