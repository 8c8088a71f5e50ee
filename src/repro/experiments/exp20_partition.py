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

from dataclasses import dataclass

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import write_verdict
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


@dataclass
class PartitionRun:
    """One (mode x partition duration) measurement."""

    mode: str
    duration: float
    p99: float
    repair_time: float
    chunks: int
    completed: int
    lost: int
    unverified: int
    suspicions: int
    false_suspicions: int
    suspect_replans: int


@dataclass
class ZombieRun:
    """The fencing scenario: an isolated-but-alive coordinator."""

    fenced_writes: int
    stepdowns: int
    stale_accepted: int
    double_commits: int
    committed: int
    chunks: int
    unverified: int
    repair_time: float


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


def run_one(config: ExperimentConfig, mode: str, duration: float) -> PartitionRun:
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
    unverified = sum(
        1 for c in report.failed_chunks if not testbed.chunk_store.verify(c)
    )
    detector = testbed.detector
    return PartitionRun(
        mode=mode,
        duration=duration,
        p99=_p99(completions),
        repair_time=end - start,
        chunks=len(report.failed_chunks),
        completed=len(repairer.completed),
        lost=len(repairer.lost),
        unverified=unverified,
        suspicions=len(detector.suspicions) if detector else 0,
        false_suspicions=detector.false_suspicions if detector else 0,
        suspect_replans=repairer.suspect_replans,
    )


def run_zombie(config: ExperimentConfig) -> ZombieRun:
    """Partition a pinned coordinator away from the journal, then heal."""
    testbed = Testbed.build(config)
    testbed.enable_journal(checkpoint_interval=None)
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
    return ZombieRun(
        fenced_writes=testbed.journal.fenced_writes,
        stepdowns=testbed.zombie_stepdowns,
        stale_accepted=len(audit_fenced_writes(testbed.journal)),
        double_commits=sum(c - 1 for c in commits.values() if c > 1),
        committed=len(commits),
        chunks=len(report.failed_chunks),
        unverified=sum(
            1 for c in report.failed_chunks if not testbed.chunk_store.verify(c)
        ),
        repair_time=end - start,
    )


def run_exp20(
    scale: float = 0.05,
    seed: int = 0,
    durations: tuple = DURATIONS,
    modes: tuple = MODES,
) -> dict:
    """{"sweep": {duration: {mode: run}}, "zombie": ZombieRun}."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    sweep: dict = {}
    for duration in durations:
        sweep[duration] = {
            mode: run_one(config, mode, duration) for mode in modes
        }
    return {"sweep": sweep, "zombie": run_zombie(config)}


def verdict_payload(results: dict, *, scale: float, seed: int) -> dict:
    """The ``BENCH_partition.json`` document (stable keys, virtual time)."""
    sweep = results["sweep"]
    zombie: ZombieRun = results["zombie"]
    tail_reduced = all(
        per["detector"].p99 < per["baseline"].p99 for per in sweep.values()
    )
    all_runs = [run for per in sweep.values() for run in per.values()]
    repair_complete = (
        all(
            run.completed == run.chunks
            and run.lost == 0
            and run.unverified == 0
            for run in all_runs
        )
        and zombie.unverified == 0
    )
    exactly_once = zombie.double_commits == 0
    fencing_held = (
        zombie.stale_accepted == 0
        and zombie.fenced_writes > 0
        and zombie.stepdowns >= 1
    )
    return {
        "experiment": "exp20_partition",
        "schema_version": 2,
        "scale": scale,
        "seed": seed,
        "passed": tail_reduced and repair_complete and exactly_once and fencing_held,
        "tail_reduced": tail_reduced,
        "repair_complete": repair_complete,
        "exactly_once": exactly_once,
        "fencing_held": fencing_held,
        "p99_by_duration": {
            str(duration): {mode: run.p99 for mode, run in per.items()}
            for duration, per in sweep.items()
        },
        "sweep": {
            str(duration): {
                mode: {
                    "p99_s": run.p99,
                    "repair_time_s": run.repair_time,
                    "chunks": run.chunks,
                    "completed": run.completed,
                    "lost": run.lost,
                    "unverified": run.unverified,
                    "suspicions": run.suspicions,
                    "false_suspicions": run.false_suspicions,
                    "suspect_replans": run.suspect_replans,
                }
                for mode, run in per.items()
            }
            for duration, per in sweep.items()
        },
        "zombie": {
            "fenced_writes": zombie.fenced_writes,
            "stepdowns": zombie.stepdowns,
            "stale_accepted": zombie.stale_accepted,
            "double_commits": zombie.double_commits,
            "committed": zombie.committed,
            "chunks": zombie.chunks,
            "unverified": zombie.unverified,
            "repair_time_s": zombie.repair_time,
        },
    }


def write_bench(results: dict, path: str, *, scale: float, seed: int) -> dict:
    """Serialise the verdict document; returns the payload written."""
    return write_verdict(verdict_payload(results, scale=scale, seed=seed), path)


def rows(results: dict) -> list[list]:
    """Table rows: one per (duration x mode), zombie scenario last."""
    out = []
    for duration in sorted(results["sweep"]):
        for mode in MODES:
            run = results["sweep"][duration].get(mode)
            if run is None:
                continue
            out.append(
                [
                    duration,
                    mode,
                    run.p99,
                    run.repair_time,
                    f"{run.completed}/{run.chunks}",
                    run.suspicions,
                    run.false_suspicions,
                    run.suspect_replans,
                    "-",
                    run.unverified,
                ]
            )
    zombie = results["zombie"]
    out.append(
        [
            ZOMBIE_DURATION,
            "zombie",
            "-",
            zombie.repair_time,
            f"{zombie.committed}/{zombie.chunks}",
            "-",
            "-",
            "-",
            zombie.fenced_writes,
            zombie.unverified,
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

TABLES = [("Exp#20: partition-tolerant repair", HEADERS, rows)]


def headline(payload: dict) -> str:
    """The CLI's one-line summary of the verdict document."""
    return (
        f"tail_reduced={payload['tail_reduced']}, "
        f"fenced {payload['zombie']['fenced_writes']} stale writes"
    )
