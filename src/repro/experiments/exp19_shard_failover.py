"""Exp#19: sharded control plane — shard count vs failover blast radius.

Exp#16 measured whole-plane failover: one coordinator, so a crash
stalls *every* pending chunk until recovery. This experiment sweeps the
sharded control plane (:meth:`repro.api.Testbed.start_sharded_repair`):
the chunk batch is hash-partitioned across N concurrent coordinators,
each journalling to its own partition, and a
:class:`repro.faults.CoordinatorCrash` targets exactly one shard — the
deterministically largest one, the worst case — at a swept fraction of
that shard count's crash-free repair time. Per (shard count × crash
time) cell it measures

* **failover blast radius** — the fraction of open (pending + leased)
  chunks stalled by the crash, read from the journal state at the
  crash instant (``Testbed.crash_blasts``). One shard stalls
  everything (blast 1.0); more shards must shrink it strictly;
* **repair-time inflation** — completion time relative to the same
  shard count's crash-free run (sibling shards keep repairing through
  the dead shard's downtime, so inflation should shrink with shards
  too);
* **exactly-once accounting** — chunks repaired by two incarnations
  (must be 0 across *all* coordinators, dead and replacement), chunks
  requeued at recovery, chunks the journal proved committed, and
  post-run checksum failures (must be 0).

Everything is seeded and virtual-time only, so two runs with the same
``--scale``/``--seed`` emit byte-identical ``BENCH_shard.json`` — CI
``cmp``-diffs the document and asserts the blast-radius verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import write_verdict

#: Shard counts swept (1 = the single-coordinator baseline plane).
SHARD_COUNTS = (1, 2, 4)

#: Crash offset as a fraction of the same shard count's crash-free
#: repair time (None = no crash: that shard count's baseline).
CRASH_FRACTIONS = (None, 0.15, 0.4)

#: Control-plane mean-time-to-recovery, as a fraction of the crash-free
#: repair time (matches exp16's failure-detector + restart window).
MTTR_FRACTION = 0.25

#: Chunk size (MB); matches exp16 so failover windows stay bounded.
CHUNK_MB = 16.0


@dataclass
class ShardRun:
    """One (shard count × crash timing) measurement."""

    shards: int
    crash_frac: float | None
    crash_shard: int | None
    repair_time: float
    chunks: int
    partition_sizes: list[int]
    #: Fraction of open chunks stalled at the crash instant (0 = no crash).
    blast: float
    stalled: int
    open_at_crash: int
    completed_total: int
    duplicates: int
    requeued: int
    proven_committed: int
    unverified: int
    lost: int
    journal_records: int


def run_one(
    config: ExperimentConfig,
    shards: int,
    crash_frac: float | None,
    *,
    baseline_time: float | None = None,
) -> ShardRun:
    """One run: foreground + N-shard repair (+ optional one-shard crash)."""
    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.start_foreground()
    # Let the monitor observe pure foreground before the failure.
    testbed.cluster.sim.run(until=testbed.cluster.sim.now + 2.0)
    report = testbed.fail_nodes(1)
    start = testbed.cluster.sim.now
    incarnations = testbed.start_sharded_repair(
        "ChameleonEC", report.failed_chunks, shards=shards
    )
    parts = testbed.shard_router.partition(report.failed_chunks)
    # Crash the largest initial partition — the worst-case blast for
    # this shard count; ties break to the lowest shard id.
    crash_shard = max(range(shards), key=lambda s: (len(parts[s]), -s))
    if crash_frac is not None:
        assert baseline_time is not None, "crash runs need the baseline time"
        testbed.inject_coordinator_crash(
            crash_frac * baseline_time,
            recover_after=MTTR_FRACTION * baseline_time,
            shard=crash_shard,
        )
    testbed.run_until(
        lambda: bool(testbed.repairers)
        and all(r.done for r in testbed.repairers),
        step=1.0,
    )
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=1.0)

    # Every incarnation that ever repaired: the initial coordinators
    # plus any post-crash replacements still registered on the testbed.
    all_incarnations = list(incarnations)
    for repairer in testbed.repairers:
        if all(repairer is not seen for seen in all_incarnations):
            all_incarnations.append(repairer)
    completions: Counter = Counter()
    lost_chunks = set()
    for repairer in all_incarnations:
        completions.update(repairer.completed)
        lost_chunks.update(repairer.lost)
    duplicates = sum(count - 1 for count in completions.values() if count > 1)
    recoveries = [r.recovery for r in all_incarnations if r.recovery]
    blast_entry = testbed.crash_blasts[-1] if testbed.crash_blasts else None
    finished = [
        r.meter.finished_at
        for r in testbed.repairers
        if r.meter.finished_at is not None
    ]
    end = max(finished) if finished else testbed.cluster.sim.now
    unverified = sum(
        1 for c in report.failed_chunks if not testbed.chunk_store.verify(c)
    )
    return ShardRun(
        shards=shards,
        crash_frac=crash_frac,
        crash_shard=crash_shard if crash_frac is not None else None,
        repair_time=end - start,
        chunks=len(report.failed_chunks),
        partition_sizes=[len(p) for p in parts],
        blast=blast_entry["blast"] if blast_entry else 0.0,
        stalled=blast_entry["stalled"] if blast_entry else 0,
        open_at_crash=blast_entry["open"] if blast_entry else 0,
        completed_total=len(completions),
        duplicates=duplicates,
        requeued=sum(len(p.requeue) for p in recoveries),
        proven_committed=sum(len(p.completed) for p in recoveries),
        unverified=unverified,
        lost=len(lost_chunks),
        journal_records=len(testbed.journal) + testbed.journal.compacted_records,
    )


def run_exp19(
    scale: float = 0.08,
    seed: int = 0,
    shard_counts: tuple = SHARD_COUNTS,
    crash_fractions: tuple = CRASH_FRACTIONS,
) -> dict:
    """{shard count: {crash fraction: measurement}} across the sweep."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    results: dict = {}
    for shards in shard_counts:
        baseline = run_one(config, shards, None)
        per_shard: dict = {None: baseline}
        for frac in crash_fractions:
            if frac is None:
                continue
            per_shard[frac] = run_one(
                config, shards, frac, baseline_time=baseline.repair_time
            )
        results[shards] = per_shard
    return results


def _mean_blast(per_shard: dict) -> float:
    blasts = [
        run.blast for frac, run in per_shard.items() if frac is not None
    ]
    return sum(blasts) / len(blasts) if blasts else 0.0


def verdict_payload(results: dict, *, scale: float, seed: int) -> dict:
    """The ``BENCH_shard.json`` document (stable keys, virtual time only)."""
    shard_counts = sorted(results)
    mean_blasts = {s: _mean_blast(results[s]) for s in shard_counts}
    blast_shrinks = all(
        mean_blasts[a] > mean_blasts[b]
        for a, b in zip(shard_counts, shard_counts[1:])
    )
    all_runs = [run for per in results.values() for run in per.values()]
    exactly_once = all(run.duplicates == 0 for run in all_runs)
    repair_complete = all(
        run.completed_total == run.chunks
        and run.lost == 0
        and run.unverified == 0
        for run in all_runs
    )
    return {
        "experiment": "exp19_shard_failover",
        "schema_version": 1,
        "scale": scale,
        "seed": seed,
        "passed": blast_shrinks and exactly_once and repair_complete,
        "blast_shrinks": blast_shrinks,
        "exactly_once": exactly_once,
        "repair_complete": repair_complete,
        "mean_blast_by_shards": {
            str(s): mean_blasts[s] for s in shard_counts
        },
        "shards": {
            str(shards): {
                "crash_free_repair_s": per[None].repair_time,
                "partition_sizes": per[None].partition_sizes,
                "runs": {
                    "none" if frac is None else str(frac): {
                        "crash_shard": run.crash_shard,
                        "repair_time_s": run.repair_time,
                        "time_inflation": (
                            run.repair_time / per[None].repair_time
                            if per[None].repair_time > 0
                            else 0.0
                        ),
                        "blast": run.blast,
                        "stalled": run.stalled,
                        "open_at_crash": run.open_at_crash,
                        "chunks": run.chunks,
                        "completed": run.completed_total,
                        "duplicates": run.duplicates,
                        "requeued": run.requeued,
                        "proven_committed": run.proven_committed,
                        "unverified": run.unverified,
                        "lost": run.lost,
                        "journal_records": run.journal_records,
                    }
                    for frac, run in per.items()
                },
            }
            for shards, per in results.items()
        },
    }


def write_bench(results: dict, path: str, *, scale: float, seed: int) -> dict:
    """Serialise the verdict document; returns the payload written."""
    return write_verdict(verdict_payload(results, scale=scale, seed=seed), path)


def rows(results: dict) -> list[list]:
    """Table rows: blast radius and exactly-once columns per cell."""
    out = []
    for shards in sorted(results):
        per = results[shards]
        baseline = per[None]
        for frac in sorted(per, key=lambda f: -1.0 if f is None else f):
            run = per[frac]
            inflation = (
                run.repair_time / baseline.repair_time
                if baseline.repair_time > 0
                else 0.0
            )
            out.append(
                [
                    shards,
                    "none" if frac is None else frac,
                    "-" if run.crash_shard is None else run.crash_shard,
                    run.blast,
                    f"{run.stalled}/{run.open_at_crash}",
                    run.repair_time,
                    inflation,
                    f"{run.completed_total}/{run.chunks}",
                    run.duplicates,
                    run.requeued,
                    run.unverified,
                    run.journal_records,
                ]
            )
    return out


HEADERS = [
    "shards",
    "crash@",
    "dead shard",
    "blast",
    "stalled",
    "repair s",
    "time inflation",
    "repaired",
    "dupes",
    "requeued",
    "unverified",
    "wal records",
]

TABLES = [("Exp#19: sharded control-plane failover", HEADERS, rows)]


def headline(payload: dict) -> str:
    """The CLI's one-line summary of the verdict document."""
    blasts = payload["mean_blast_by_shards"]
    trend = " -> ".join(f"{blasts[s]:.2f}" for s in sorted(blasts, key=int))
    return f"mean blast radius {trend}"
