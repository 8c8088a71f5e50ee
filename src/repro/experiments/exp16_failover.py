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

from dataclasses import dataclass

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig

#: Crash offset as a fraction of the crash-free repair time
#: (None = no crash: the baseline).
CRASH_FRACTIONS = (None, 0.2, 0.5, 0.8)

#: Control-plane mean-time-to-recovery, as a fraction of the crash-free
#: repair time (the failure detector + replacement start-up window).
MTTR_FRACTION = 0.25

#: Chunk size for this experiment (MB); smaller than the repair
#: experiments' 64 MB so multiple incarnations fit a bounded window.
CHUNK_MB = 16.0


@dataclass
class FailoverRun:
    """One (crash timing) measurement."""

    crash_frac: float | None
    repair_time: float
    p99_latency: float
    chunks: int
    completed_before: int
    completed_after: int
    requeued: int
    proven_committed: int
    duplicates: int
    unverified: int
    journal_records: int
    lost: int


def run_one(
    config: ExperimentConfig,
    crash_frac: float | None,
    *,
    baseline_time: float | None = None,
) -> FailoverRun:
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
    duplicates = len(set(before) & set(survivor.completed))
    unverified = sum(
        1 for c in report.failed_chunks if not testbed.chunk_store.verify(c)
    )
    return FailoverRun(
        crash_frac=crash_frac,
        repair_time=(end if end is not None else testbed.cluster.sim.now) - start,
        p99_latency=testbed.latency.p99 if testbed.latency else 0.0,
        chunks=len(report.failed_chunks),
        completed_before=len(before),
        completed_after=len(survivor.completed),
        requeued=len(recovery.requeue) if recovery is not None else 0,
        proven_committed=len(recovery.completed) if recovery is not None else 0,
        duplicates=duplicates,
        unverified=unverified,
        journal_records=len(testbed.journal) + testbed.journal.compacted_records,
        lost=len(survivor.lost),
    )


def run_exp16(
    scale: float = 0.08,
    seed: int = 0,
    crash_fractions: tuple = CRASH_FRACTIONS,
) -> dict:
    """{crash fraction: measurement} across the crash-timing sweep."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    baseline = run_one(config, None)
    results: dict = {None: baseline}
    for frac in crash_fractions:
        if frac is None:
            continue
        results[frac] = run_one(
            config, frac, baseline_time=baseline.repair_time
        )
    return results


def rows(results: dict) -> list[list]:
    """Table rows: inflation and exactly-once accounting per crash time."""
    baseline = results.get(None)
    out = []
    for frac in sorted(results, key=lambda f: -1.0 if f is None else f):
        run = results[frac]
        time_inflation = (
            run.repair_time / baseline.repair_time
            if baseline is not None and baseline.repair_time > 0
            else 0.0
        )
        p99_inflation = (
            run.p99_latency / baseline.p99_latency
            if baseline is not None and baseline.p99_latency > 0
            else 0.0
        )
        out.append(
            [
                "none" if frac is None else frac,
                run.repair_time,
                time_inflation,
                run.p99_latency * 1e3,
                p99_inflation,
                f"{run.completed_before}+{run.completed_after}/{run.chunks}",
                run.requeued,
                run.duplicates,
                run.unverified,
                run.journal_records,
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

TABLES = [("Exp#16: coordinator failover (crash timing vs repair inflation)", HEADERS, rows)]
