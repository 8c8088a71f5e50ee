"""Exp#19: coordinator failover — shard count vs blast radius and cost.

ChameleonEC's scheduler is a centralized coordinator (Section III); the
journal subsystem (``repro.journal``) makes its scheduling state durable
so a control-plane crash costs downtime, not correctness. This
experiment sweeps the sharded control plane
(:meth:`repro.api.Testbed.start_sharded_repair`): the chunk batch is
hash-partitioned across N concurrent coordinators, each journalling to
its own partition, and a :class:`repro.faults.CoordinatorCrash` targets
exactly one shard — the deterministically largest one, the worst case —
at a swept fraction of that shard count's crash-free repair time. A
replacement recovers from the journal ``MTTR_FRACTION`` of that time
later. One shard is the whole-plane case: a crash stalls *every*
pending chunk until recovery, so it is swept at more crash points. Per
(shard count × crash time) cell it measures

* **failover blast radius** — the fraction of open (pending + leased)
  chunks stalled by the crash, read from the journal state at the
  crash instant (``Testbed.crash_blasts``). One shard stalls
  everything (blast 1.0); more shards must shrink it strictly;
* **repair-time inflation** — completion time relative to the same
  shard count's crash-free run (sibling shards keep repairing through
  the dead shard's downtime, so inflation should shrink with shards
  too; a later crash re-runs less work);
* **foreground P99** — the client tail latency over the whole run;
* **exactly-once accounting** — chunks repaired by two incarnations
  (must be 0 across *all* coordinators, dead and replacement), chunks
  requeued at recovery, chunks the journal proved committed, and
  post-run checksum failures (must be 0).

Runs use verified repair (integrity enabled) so "repaired" means
byte-exact, and the journal's replay is reconciled against the chunk
store — the full recovery path, not just the happy path. Everything is
seeded and virtual-time only, so two runs with the same
``--scale``/``--seed`` emit byte-identical ``BENCH_shard.json`` — CI
``cmp``-diffs the document and asserts the blast-radius verdict.
"""

from __future__ import annotations

from collections import Counter

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, nested, ratio

#: Shard count (1 = the single-coordinator plane) -> crash offsets, each
#: a fraction of that shard count's crash-free repair time (None = no
#: crash: that shard count's baseline).
CRASH_FRACTIONS = {
    1: (None, 0.15, 0.2, 0.4, 0.5, 0.8),
    2: (None, 0.15, 0.4),
    4: (None, 0.15, 0.4),
}

#: Control-plane mean-time-to-recovery, as a fraction of the crash-free
#: repair time (the failure detector + replacement start-up window).
MTTR_FRACTION = 0.25

#: Chunk size (MB); smaller than the repair experiments' 64 MB so
#: several incarnations fit a bounded window.
CHUNK_MB = 16.0


def run_one(
    config: ExperimentConfig,
    shards: int,
    crash_frac: float | None,
    *,
    baseline_time: float | None = None,
) -> dict:
    """One run: foreground + N-shard repair (+ optional one-shard crash).

    A crash-free run is its own ``time_inflation`` baseline.
    """
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
    recoveries = [r.recovery for r in all_incarnations if r.recovery]
    blast = testbed.crash_blasts[-1] if testbed.crash_blasts else None
    finished = [
        r.meter.finished_at
        for r in testbed.repairers
        if r.meter.finished_at is not None
    ]
    repair_time = (max(finished) if finished else testbed.cluster.sim.now) - start
    return {
        "partition_sizes": [len(p) for p in parts],
        "crash_shard": crash_shard if crash_frac is not None else None,
        "repair_time_s": repair_time,
        "time_inflation": ratio(
            repair_time, repair_time if baseline_time is None else baseline_time
        ),
        # Fraction of open chunks stalled at the crash instant (0 = no crash).
        "blast": blast["blast"] if blast else 0.0,
        "stalled": blast["stalled"] if blast else 0,
        "open_at_crash": blast["open"] if blast else 0,
        "p99_latency_s": testbed.latency.p99 if testbed.latency else 0.0,
        "chunks": len(report.failed_chunks),
        "completed": len(completions),
        "duplicates": sum(n - 1 for n in completions.values() if n > 1),
        "requeued": sum(len(p.requeue) for p in recoveries),
        "proven_committed": sum(len(p.completed) for p in recoveries),
        "unverified": len(testbed.chunk_store.unsound(report.failed_chunks)),
        "lost": len(lost_chunks),
        "journal_records": len(testbed.journal),
    }


def grid(scale: float, seed: int):
    """Cells keyed ``(shards, crash fraction)``, each shard count's
    crash-free baseline first."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    for shards, fractions in CRASH_FRACTIONS.items():
        baseline = run_one(config, shards, None)
        yield (shards, None), baseline
        for frac in fractions[1:]:
            yield (shards, frac), run_one(
                config, shards, frac, baseline_time=baseline["repair_time_s"]
            )


def mean_blasts(cells: dict) -> dict[int, float]:
    """Mean blast radius over each shard count's crash runs."""
    means = {}
    for shards, runs in sorted(nested(cells).items()):
        blasts = [cell["blast"] for frac, cell in runs.items() if frac is not None]
        means[shards] = sum(blasts) / len(blasts) if blasts else 0.0
    return means


def _blast_shrinks(cells: dict) -> bool:
    means = list(mean_blasts(cells).values())
    return all(a > b for a, b in zip(means, means[1:]))


def body(cells: dict, verdicts: dict) -> dict:
    """``BENCH_shard.json`` below its header (stable keys, virtual time only)."""
    return {
        **verdicts,
        "mean_blast_by_shards": {
            str(s): blast for s, blast in mean_blasts(cells).items()
        },
        "shards": {
            str(shards): {
                "crash_free_repair_s": runs[None]["repair_time_s"],
                "partition_sizes": runs[None]["partition_sizes"],
                "runs": {
                    "none" if frac is None else str(frac): {
                        key: value
                        for key, value in cell.items()
                        if key != "partition_sizes"
                    }
                    for frac, cell in runs.items()
                },
            }
            for shards, runs in nested(cells).items()
        },
    }


def rows(cells: dict) -> list[list]:
    """Table rows: blast radius and exactly-once columns per cell."""
    return [
        [
            shards,
            "none" if frac is None else frac,
            "-" if cell["crash_shard"] is None else cell["crash_shard"],
            cell["blast"],
            f"{cell['stalled']}/{cell['open_at_crash']}",
            cell["repair_time_s"],
            cell["time_inflation"],
            cell["p99_latency_s"] * 1e3,
            f"{cell['completed']}/{cell['chunks']}",
            cell["duplicates"],
            cell["requeued"],
            cell["unverified"],
            cell["journal_records"],
        ]
        for (shards, frac), cell in cells.items()
    ]


HEADERS = [
    "shards",
    "crash@",
    "dead shard",
    "blast",
    "stalled",
    "repair s",
    "time inflation",
    "P99 ms",
    "repaired",
    "dupes",
    "requeued",
    "unverified",
    "wal records",
]


def _headline(doc: dict) -> str:
    blasts = doc["mean_blast_by_shards"]
    trend = " -> ".join(f"{blasts[s]:.2f}" for s in sorted(blasts, key=int))
    return f"mean blast radius {trend}"


SWEEP = Sweep(
    "exp19_shard_failover",
    grid,
    [("Exp#19: sharded control-plane failover", HEADERS, rows)],
    document="BENCH_shard.json",
    schema_version=2,
    predicates={
        "blast_shrinks": _blast_shrinks,
        "exactly_once": lambda cells: all(
            cell["duplicates"] == 0 for cell in cells.values()
        ),
        "repair_complete": lambda cells: all(
            cell["completed"] == cell["chunks"]
            and cell["lost"] == 0
            and cell["unverified"] == 0
            for cell in cells.values()
        ),
    },
    body=body,
    headline=_headline,
)
