"""Exp#16: coordinator failover — crash timing vs repair-time inflation.

ChameleonEC's scheduler is a centralized coordinator (Section III); the
journal subsystem (``repro.journal``) makes its scheduling state durable
so a control-plane crash costs downtime, not correctness. This
experiment quantifies that cost: a :class:`repro.faults.CoordinatorCrash`
kills the coordinator at a swept fraction of the crash-free repair time,
a replacement recovers from the journal ``MTTR_FRACTION`` of the
crash-free time later, and each run measures

* **repair-time inflation** — wall-to-wall repair completion (first
  dispatch to last verified write-back, crash downtime included)
  relative to the crash-free baseline;
* **foreground P99 inflation** — the client tail latency relative to
  the same baseline (a late crash re-runs little work; an early crash
  repeats almost the whole batch against the foreground);
* **exactly-once accounting** — chunks repaired by both incarnations
  (must be 0), chunks requeued at recovery, chunks the journal proved
  committed, and post-run checksum failures (must be 0).

Runs use verified repair (integrity enabled) so "repaired" means
byte-exact, and the journal's replay is reconciled against the chunk
store — the full recovery path, not just the happy path.
"""

from __future__ import annotations

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, ratio

#: Crash offset as a fraction of the crash-free repair time
#: (None = no crash: the baseline).
CRASH_FRACTIONS = (None, 0.2, 0.5, 0.8)

#: Control-plane mean-time-to-recovery, as a fraction of the crash-free
#: repair time (the failure detector + replacement start-up window).
MTTR_FRACTION = 0.25

#: Chunk size for this experiment (MB); smaller than the repair
#: experiments' 64 MB so multiple incarnations fit a bounded window.
CHUNK_MB = 16.0


def run_one(
    config: ExperimentConfig,
    crash_frac: float | None,
    *,
    baseline_time: float | None = None,
) -> dict:
    """One run: foreground + repair (+ optional crash & auto-recovery)."""
    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.start_foreground()
    # Let the monitor observe pure foreground before the failure.
    testbed.cluster.sim.run(until=testbed.cluster.sim.now + 2.0)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("ChameleonEC")
    start = testbed.cluster.sim.now
    repairer.repair(report.failed_chunks)
    if crash_frac is not None:
        assert baseline_time is not None, "crash runs need the baseline time"
        testbed.inject_coordinator_crash(
            crash_frac * baseline_time,
            recover_after=MTTR_FRACTION * baseline_time,
        )
    testbed.run_until(
        lambda: bool(testbed.repairers)
        and all(r.done for r in testbed.repairers),
        step=1.0,
    )
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=1.0)

    survivor = testbed.repairers[-1]
    end = survivor.meter.finished_at
    recovery = survivor.recovery
    before = repairer.completed if survivor is not repairer else []
    return {
        "repair_time_s": (
            end if end is not None else testbed.cluster.sim.now
        ) - start,
        "p99_latency_s": testbed.latency.p99 if testbed.latency else 0.0,
        "chunks": len(report.failed_chunks),
        "completed_before": len(before),
        "completed_after": len(survivor.completed),
        "requeued": len(recovery.requeue) if recovery is not None else 0,
        "duplicates": len(set(before) & set(survivor.completed)),
        "unverified": len(testbed.chunk_store.unsound(report.failed_chunks)),
        "journal_records": len(testbed.journal),
        "lost": len(survivor.lost),
    }


def grid(scale: float, seed: int):
    """Cells keyed by crash fraction: the crash-free baseline first."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    baseline = run_one(config, None)
    yield None, baseline
    for frac in CRASH_FRACTIONS[1:]:
        yield frac, run_one(
            config, frac, baseline_time=baseline["repair_time_s"]
        )


def rows(cells: dict) -> list[list]:
    """Table rows: inflation and exactly-once accounting per crash time."""
    baseline = cells[None]
    out = []
    for frac, cell in cells.items():
        out.append(
            [
                "none" if frac is None else frac,
                cell["repair_time_s"],
                ratio(cell["repair_time_s"], baseline["repair_time_s"]),
                cell["p99_latency_s"] * 1e3,
                ratio(cell["p99_latency_s"], baseline["p99_latency_s"]),
                f"{cell['completed_before']}+{cell['completed_after']}"
                f"/{cell['chunks']}",
                cell["requeued"],
                cell["duplicates"],
                cell["unverified"],
                cell["journal_records"],
            ]
        )
    return out


HEADERS = [
    "crash@",
    "repair s",
    "time inflation",
    "P99 ms",
    "P99 inflation",
    "repaired",
    "requeued",
    "dupes",
    "unverified",
    "wal records",
]

SWEEP = Sweep(
    "exp16_failover",
    grid,
    "Exp#16: coordinator failover (crash timing vs repair inflation)",
    HEADERS,
    rows,
)
run_exp16 = SWEEP.run
TABLES = SWEEP.tables
