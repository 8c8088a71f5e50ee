"""Exp#20: repair under network partitions — failure detection vs timeouts.

Exp#14 stressed repair with crashes and stragglers; this experiment
adds the remaining distributed-systems fault: the network *partition*.
A seeded :class:`repro.faults.NetworkPartition` isolates a small group
of live helper nodes shortly after repair starts — every cross-cut
flow stalls (blackholed in-flight slice, refused fresh slices) until
the heal. Two repair configurations race the same cut, per swept
partition duration:

* **baseline** — timeout-only: a stalled chunk waits out
  ``chunk_timeout`` before replanning (and the fresh plan may pick the
  same unreachable helpers — nothing marks them);
* **detector** — the accrual failure detector
  (:meth:`repro.api.Testbed.enable_failure_detector`) suspects the cut
  group within a few heartbeats; in-flight instances touching a
  suspect fail immediately, back off, and re-plan around the suspects.
  This is the configuration the verdict gates: its p99
  chunk-completion time must beat the timeout-only baseline *strictly*
  at every duration.

A separate **zombie** scenario exercises the fencing half of the
design: one shard's coordinator is pinned
(:meth:`~repro.api.Testbed.place_coordinator`) to a storage node that
a partition then cuts off from the journal. The rest of the cluster
fences its shard; every write-through the isolated-but-alive
coordinator makes is rejected (``journal.fenced_writes``), the heal
makes it step down, and recovery proceeds under the next epoch. The
verdict asserts the log accepted **zero** stale writes
(:func:`repro.journal.audit_fenced_writes`), recorded **zero** double
commits, and that the fence actually bit (rejections > 0,
step-downs >= 1).

Everything is seeded and virtual-time only, so two runs with the same
``--scale``/``--seed`` emit byte-identical ``BENCH_partition.json`` —
CI ``cmp``-diffs the document and asserts the verdict.
"""

from __future__ import annotations

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, nested
from repro.faults import FaultTimeline
from repro.journal import audit_fenced_writes
from repro.journal.records import COMMITTED

#: Repair configurations racing the same partition schedule.
MODES = ("baseline", "detector")

#: Partition durations swept (seconds of virtual time).
DURATIONS = (4.0, 10.0)

#: Chunk size (MB); the paper's default keeps individual repairs long
#: enough for a mid-repair cut to stall real work.
CHUNK_MB = 64.0

#: Timeout-only recovery knob, shared by every mode (the baseline's
#: sole defence; the detector should beat it by an order of magnitude).
CHUNK_TIMEOUT = 8.0

#: Partition onset after repair start. Early enough that nearly the
#: whole batch is still in flight.
PARTITION_AT = 0.2

#: Live storage nodes isolated per wave. With RS(10,4) on 20 nodes one
#: node is already dead, so 13 survivors hold each stripe; cutting 3
#: leaves exactly k=10 trusted helpers — every stripe stays repairable
#: *around* the cut (a larger cut would force plans through it).
CUT_SIZE = 3

#: Detector heartbeat period; suspicion fires at ~threshold intervals.
HEARTBEAT_INTERVAL = 0.25

#: How long the zombie coordinator's home stays cut off.
ZOMBIE_DURATION = 6.0


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))
    return ordered[idx]


def _cut_group(testbed: Testbed, failed_nodes) -> list[int]:
    """The first ``CUT_SIZE`` live storage nodes, in id order."""
    dead = set(failed_nodes)
    alive = [n for n in testbed.cluster.storage_ids if n not in dead]
    return alive[:CUT_SIZE]


def run_one(config: ExperimentConfig, mode: str, duration: float) -> dict:
    """One run: foreground + repair racing a mid-repair partition."""
    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.enable_timeseries()
    testbed.start_foreground()
    # Let the monitor observe pure foreground before the failure.
    testbed.cluster.sim.run(until=testbed.cluster.sim.now + 2.0)
    report = testbed.fail_nodes(1)
    if mode == "detector":
        testbed.enable_failure_detector(heartbeat_interval=HEARTBEAT_INTERVAL)
    repairer = testbed.make_repairer("ChameleonEC", chunk_timeout=CHUNK_TIMEOUT)
    start = testbed.cluster.sim.now
    completions: list[float] = []
    repairer.on(
        "chunk_repaired",
        lambda _r, chunk, plan: completions.append(
            testbed.cluster.sim.now - start
        ),
    )
    timeline = FaultTimeline().partition(
        PARTITION_AT, [_cut_group(testbed, report.failed_nodes)], duration=duration
    )
    testbed.install_faults(timeline)
    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done, step=0.25)
    end = testbed.cluster.sim.now
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=1.0)
    detector = testbed.detector
    return {
        "p99_s": _p99(completions),
        "repair_time_s": end - start,
        "chunks": len(report.failed_chunks),
        "completed": len(repairer.completed),
        "lost": len(repairer.lost),
        "unverified": len(testbed.chunk_store.unsound(report.failed_chunks)),
        "suspicions": len(detector.suspicions) if detector else 0,
        "false_suspicions": detector.false_suspicions if detector else 0,
        "suspect_replans": repairer.suspect_replans,
    }


def run_zombie(config: ExperimentConfig) -> dict:
    """Partition a pinned coordinator away from the journal, then heal."""
    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.start_foreground()
    testbed.cluster.sim.run(until=testbed.cluster.sim.now + 2.0)
    report = testbed.fail_nodes(1)
    start = testbed.cluster.sim.now
    repairers = testbed.start_sharded_repair(
        "ChameleonEC", report.failed_chunks, shards=2
    )
    home = testbed.cluster.storage_nodes[-1].id
    testbed.place_coordinator(repairers[0], home)
    timeline = FaultTimeline().partition(
        PARTITION_AT, [[home]], duration=ZOMBIE_DURATION
    )
    testbed.install_faults(timeline)
    horizon = testbed.cluster.sim.now + 4 * ZOMBIE_DURATION
    testbed.run_until(
        lambda: testbed.zombie_stepdowns > 0
        or testbed.cluster.sim.now >= horizon,
        step=0.5,
    )
    if testbed.zombie_stepdowns:
        testbed.recover_repairer(shard=0)
    testbed.run_until(
        lambda: all(r.done for r in testbed.repairers),
        step=0.5,
    )
    end = testbed.cluster.sim.now
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=1.0)
    commits: dict = {}
    for record in testbed.journal.records:
        if record.kind == COMMITTED and record.chunk is not None:
            commits[record.chunk] = commits.get(record.chunk, 0) + 1
    return {
        "fenced_writes": testbed.journal.fenced_writes,
        "stepdowns": testbed.zombie_stepdowns,
        "stale_accepted": len(audit_fenced_writes(testbed.journal)),
        "double_commits": sum(c - 1 for c in commits.values() if c > 1),
        "committed": len(commits),
        "chunks": len(report.failed_chunks),
        "unverified": len(testbed.chunk_store.unsound(report.failed_chunks)),
        "repair_time_s": end - start,
    }


def grid(scale: float, seed: int):
    """Cells keyed ``(duration, mode)`` across the sweep, then ``"zombie"``."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    for duration in DURATIONS:
        for mode in MODES:
            yield (duration, mode), run_one(config, mode, duration)
    yield "zombie", run_zombie(config)


def _fencing_held(cells: dict) -> bool:
    zombie = cells["zombie"]
    return (
        zombie["stale_accepted"] == 0
        and zombie["fenced_writes"] > 0
        and zombie["stepdowns"] >= 1
    )


def body(cells: dict, verdicts: dict) -> dict:
    """``BENCH_partition.json`` below its header (stable keys, virtual time)."""
    per_duration = nested(cells)
    return {
        **verdicts,
        "p99_by_duration": {
            str(duration): {mode: cell["p99_s"] for mode, cell in per.items()}
            for duration, per in per_duration.items()
        },
        "sweep": {str(duration): per for duration, per in per_duration.items()},
        "zombie": cells["zombie"],
    }


def rows(cells: dict) -> list[list]:
    """Table rows: one per (duration x mode), zombie scenario last."""
    out = [
        [
            duration,
            mode,
            cell["p99_s"],
            cell["repair_time_s"],
            f"{cell['completed']}/{cell['chunks']}",
            cell["suspicions"],
            cell["false_suspicions"],
            cell["suspect_replans"],
            "-",
            cell["unverified"],
        ]
        for duration, per in nested(cells).items()
        for mode, cell in per.items()
    ]
    zombie = cells["zombie"]
    out.append(
        [
            ZOMBIE_DURATION,
            "zombie",
            "-",
            zombie["repair_time_s"],
            f"{zombie['committed']}/{zombie['chunks']}",
            "-",
            "-",
            "-",
            zombie["fenced_writes"],
            zombie["unverified"],
        ]
    )
    return out


HEADERS = [
    "cut s",
    "mode",
    "p99 s",
    "repair s",
    "repaired",
    "suspects",
    "false",
    "replans",
    "fenced",
    "unverified",
]

SWEEP = Sweep(
    "exp20_partition",
    grid,
    [("Exp#20: partition-tolerant repair", HEADERS, rows)],
    document="BENCH_partition.json",
    schema_version=2,
    predicates={
        "tail_reduced": lambda cells: all(
            per["detector"]["p99_s"] < per["baseline"]["p99_s"]
            for per in nested(cells).values()
        ),
        "repair_complete": lambda cells: all(
            cell["completed"] == cell["chunks"]
            and cell["lost"] == 0
            and cell["unverified"] == 0
            for per in nested(cells).values()
            for cell in per.values()
        )
        and cells["zombie"]["unverified"] == 0,
        "exactly_once": lambda cells: cells["zombie"]["double_commits"] == 0,
        "fencing_held": _fencing_held,
    },
    body=body,
    headline=lambda doc: (
        f"tail_reduced={doc['tail_reduced']}, "
        f"fenced {doc['zombie']['fenced_writes']} stale writes"
    ),
)
