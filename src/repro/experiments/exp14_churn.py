"""Exp#14: repair under churn — crashes and stragglers mid-repair.

The paper's experiments fail nodes *before* the repair starts; real
clusters churn *while* it runs. This experiment measures how each repair
algorithm degrades when, with YCSB-A foreground traffic running, a
second node crashes and a third straggles partway through a full-node
repair (injected by a seeded :class:`repro.faults.FaultTimeline`):

* the crash kills every in-flight repair transfer touching the dead
  node (those chunks are retried with fresh plans) and adds the dead
  node's chunks to the repair batch;
* the straggler throttles a helper's links to 10% for a few seconds,
  exercising the straggler-aware re-scheduling path.

Metrics per algorithm: fault-free vs churn repair completion time,
retries, chunks adopted from the crash, chunks lost (zero while the
failures stay within the code's tolerance), and foreground P99
inflation relative to the fault-free run.

Fault offsets follow the paper's 20 s phase and shrink with ``t_phase``
exactly like Exp#11's straggler offsets, so scaled runs inject at the
same *relative* point of the repair.
"""

from __future__ import annotations

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, nested, ratio
from repro.faults.timeline import FaultTimeline

ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")

#: Paper-scale fault offsets (seconds after the repair starts, at
#: t_phase = 20 s): the crash lands early, the straggler mid-repair.
CRASH_AT = 2.0
STRAGGLER_AT = 4.0
STRAGGLER_DURATION = 3.0
STRAGGLER_SEVERITY = 0.1


def run_one(config: ExperimentConfig, algorithm: str, *, churn: bool) -> dict:
    """One full measurement: foreground + failure + (churn +) repair."""
    testbed = Testbed.build(config)
    testbed.start_foreground()
    testbed.cluster.sim.run(until=testbed.cluster.sim.now + 6.0)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer(algorithm)
    adopted: list = []
    repairer.on("chunks_added", lambda _r, chunks: adopted.extend(chunks))

    factor = config.t_phase / 20.0  # offsets assume the paper's 20 s phase
    horizon = 0.0
    if churn:
        # Two distinct surviving helpers: the crash and straggler targets.
        crash_node, straggler_node = sorted(testbed.cluster.alive_storage_ids())[:2]
        timeline = (
            FaultTimeline(seed=config.seed + 11)
            .crash(CRASH_AT * factor, crash_node)
            .degrade(
                STRAGGLER_AT * factor,
                straggler_node,
                factor=STRAGGLER_SEVERITY,
                duration=STRAGGLER_DURATION * factor,
            )
        )
        horizon = (STRAGGLER_AT + STRAGGLER_DURATION) * factor
        testbed.install_faults(timeline)

    start = testbed.cluster.sim.now
    repairer.repair(report.failed_chunks)
    # Every fault must have fired before "done" counts: a crash after an
    # early finish reopens the batch with the dead node's chunks.
    testbed.run_until(
        lambda: repairer.done and testbed.cluster.sim.now >= start + horizon
    )
    fg_horizon = start + 3.0 * config.t_phase
    if testbed.cluster.sim.now < fg_horizon:
        testbed.cluster.sim.run(until=fg_horizon)
    testbed.stop_foreground()
    return {
        "repair_time_s": repairer.meter.elapsed,
        "repaired_chunks": len(repairer.completed),
        "adopted_chunks": len(adopted),
        "retries": repairer.retries,
        "lost_chunks": len(repairer.lost),
        "p99_latency_s": testbed.latency.p99 if testbed.latency else 0.0,
    }


def grid(scale: float, seed: int):
    """Cells keyed ``(algorithm, churn?)``: fault-free, then churn."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    for algorithm in ALGORITHMS:
        for churn in (False, True):
            yield (algorithm, churn), run_one(config, algorithm, churn=churn)


def rows(cells: dict) -> list[list]:
    """Table rows: churn impact per algorithm."""
    out = []
    for algorithm, runs in nested(cells).items():
        base, faulted = runs[False], runs[True]
        out.append(
            [
                algorithm,
                base["repair_time_s"],
                faulted["repair_time_s"],
                faulted["repaired_chunks"],
                faulted["adopted_chunks"],
                faulted["retries"],
                faulted["lost_chunks"],
                ratio(faulted["p99_latency_s"], base["p99_latency_s"]),
            ]
        )
    return out


HEADERS = [
    "algorithm",
    "fault-free s",
    "churn s",
    "chunks",
    "adopted",
    "retries",
    "lost",
    "P99 inflation",
]

SWEEP = Sweep(
    "exp14_churn",
    grid,
    [("Exp#14: repair under churn (mid-repair crash + straggler)", HEADERS, rows)],
)
