"""End-to-end tests for the sharded repair control plane.

Covers the facade-level guarantees ISSUE 9 pins down:

* the single-shard configuration is *byte-identical* to the
  single-coordinator path (same journal records, same repairs);
* a targeted :class:`~repro.faults.CoordinatorCrash` fences, replays
  and rebuilds only the dead shard — sibling shards never stop;
* coordinator-crash MTTR bookkeeping is kept per shard, so staggered
  crashes of different shards each measure their own recovery latency;
* the crash/recovery determinism battery: >= 10 seeds x >= 2 crash
  timings x >= 2 shard counts, identical across reruns and with
  reconstructed bytes equal to the crash-free run's.
"""

import pytest

from repro.api import ShardRouter, Testbed
from repro.cluster.stripes import ChunkId
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.obs.metrics import MetricsRegistry, set_registry

SEEDS = tuple(range(10))
CRASH_TIMES = (0.05, 0.12)
SHARD_COUNTS = (2, 4)


def make_testbed(seed):
    testbed = Testbed.build(ExperimentConfig.scaled(
        0.05, num_nodes=12, num_clients=2, code="RS(4,2)",
        chunk_mb=16.0, num_chunks=10, seed=seed,
    ))
    testbed.enable_journal()
    testbed.enable_integrity()
    return testbed


def all_done(testbed):
    return lambda: all(
        not getattr(r, "crashed", False) and r.done for r in testbed.repairers
    )


class TestShardRouter:
    def test_rejects_zero_shards(self):
        with pytest.raises(ReproError):
            ShardRouter(0)

    def test_partition_is_deterministic_and_order_preserving(self):
        router = ShardRouter(4)
        chunks = [ChunkId(i, i % 3) for i in range(20)]
        parts = router.partition(chunks)
        assert parts == ShardRouter(4).partition(chunks)
        assert sum(len(p) for p in parts) == len(chunks)
        for shard, part in enumerate(parts):
            # Each partition keeps the batch's relative order.
            assert part == [c for c in chunks if router.shard_of(c) == shard]

    def test_stripe_locality(self):
        """Every chunk of one stripe lands on the same shard."""
        router = ShardRouter(3)
        for stripe in range(50):
            shards = {router.shard_of(ChunkId(stripe, i)) for i in range(6)}
            assert len(shards) == 1

    def test_one_shard_maps_everything_to_zero(self):
        router = ShardRouter(1)
        assert all(
            router.shard_of(ChunkId(s, 0)) == 0 for s in range(100)
        )


class TestSingleShardEquivalence:
    """shards=1 degenerates exactly into the single-coordinator path."""

    @staticmethod
    def _outcome(testbed, chunks):
        return (
            testbed.journal.records,
            {c: testbed.chunk_store.get(c).tobytes() for c in chunks},
            testbed.cluster.sim.now,
        )

    def test_journal_and_bytes_are_byte_identical(self):
        legacy = make_testbed(3)
        report = legacy.fail_nodes(1)
        repairer = legacy.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        legacy.run_until(lambda: repairer.done, limit=5000.0)

        sharded = make_testbed(3)
        report2 = sharded.fail_nodes(1)
        (only,) = sharded.start_sharded_repair(
            "ChameleonEC", report2.failed_chunks, shards=1
        )
        sharded.run_until(lambda: only.done, limit=5000.0)

        assert report2.failed_chunks == report.failed_chunks
        assert self._outcome(sharded, report2.failed_chunks) == self._outcome(
            legacy, report.failed_chunks
        )
        assert list(only.completed) == list(repairer.completed)

    def test_sharded_repair_requires_a_journal(self):
        testbed = Testbed.build(ExperimentConfig.scaled(
            0.05, num_nodes=12, num_clients=2, code="RS(4,2)",
            chunk_mb=16.0, num_chunks=10,
        ))
        report = testbed.fail_nodes(1)
        with pytest.raises(ReproError):
            testbed.start_sharded_repair(
                "ChameleonEC", report.failed_chunks, shards=2
            )


class TestTargetedCrash:
    def _crash_one_shard(self, seed=0, crash_at=0.05):
        testbed = make_testbed(seed)
        report = testbed.fail_nodes(1)
        reps = testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=2
        )
        parts = testbed.shard_router.partition(report.failed_chunks)
        target = max(range(2), key=lambda s: (len(parts[s]), -s))
        testbed.inject_coordinator_crash(crash_at, shard=target)
        testbed.run_until(lambda: reps[target].crashed, step=0.01, limit=1000.0)
        return testbed, report, reps, parts, target

    def test_sibling_shard_never_stops(self):
        testbed, report, reps, parts, target = self._crash_one_shard()
        sibling = 1 - target
        assert not reps[sibling].crashed
        # Only the dead shard is fenced; the sibling's epoch still holds.
        state = testbed.journal.state
        assert state.fenced_of(target) and not state.fenced_of(sibling)
        replacement = testbed.recover_repairer(shard=target)
        testbed.run_until(all_done(testbed), limit=5000.0)
        # The sibling finished its own partition, untouched by recovery.
        assert set(reps[sibling].completed) == set(parts[sibling])
        assert state.epoch_of(sibling) == 1
        assert state.epoch_of(target) == 2  # fenced, then restarted
        repaired = set(reps[target].completed) | set(
            replacement.completed
        ) | set(reps[sibling].completed)
        assert repaired == set(report.failed_chunks)
        assert not set(reps[target].completed) & set(replacement.completed)

    def test_recovery_plan_is_scoped_to_the_dead_shard(self):
        testbed, report, reps, parts, target = self._crash_one_shard()
        replacement = testbed.recover_repairer(shard=target)
        plan = replacement.recovery
        assert plan.shard == target
        mine = set(parts[target])
        for bucket in (plan.completed, plan.requeue, plan.blocked, plan.lost):
            assert set(bucket) <= mine
        testbed.run_until(all_done(testbed), limit=5000.0)

    def test_blast_radius_is_recorded_and_partial(self):
        testbed, report, reps, parts, target = self._crash_one_shard()
        (blast,) = testbed.crash_blasts
        assert blast["shard"] == target
        assert 0 < blast["stalled"] <= blast["open"]
        assert 0.0 < blast["blast"] < 1.0
        assert blast["stalled"] <= len(parts[target])
        testbed.recover_repairer(shard=target)
        testbed.run_until(all_done(testbed), limit=5000.0)

    def test_shard_zero_crash_fells_an_unsharded_coordinator(self):
        """An unsharded coordinator is shard 0 of a one-shard plane, so a
        crash aimed at shard 0 brings it down and shard-0 recovery
        resumes it."""
        testbed = make_testbed(0)
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.inject_coordinator_crash(0.05, shard=0)
        testbed.run_until(lambda: repairer.crashed, step=0.01, limit=100.0)
        assert repairer.crashed and testbed.journal.state.fenced_of(0)
        (blast,) = testbed.crash_blasts
        assert blast["shard"] == 0 and blast["blast"] == 1.0
        replacement = testbed.recover_repairer(shard=0)
        assert replacement.shard == 0 and replacement.recovery.shard == 0
        testbed.run_until(all_done(testbed), limit=5000.0)
        repaired = set(repairer.completed) | set(replacement.completed)
        assert repaired == set(report.failed_chunks)
        assert not set(repairer.completed) & set(replacement.completed)
        assert all(testbed.chunk_store.verify(c) for c in report.failed_chunks)

    def test_whole_plane_crash_still_fells_every_shard(self):
        testbed = make_testbed(0)
        report = testbed.fail_nodes(1)
        reps = testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=2
        )
        testbed.inject_coordinator_crash(0.05)  # no shard: the whole plane
        testbed.run_until(
            lambda: all(r.crashed for r in reps), step=0.01, limit=1000.0
        )
        (blast,) = testbed.crash_blasts
        assert blast["shard"] is None and blast["blast"] == 1.0
        while any(getattr(r, "crashed", False) for r in testbed.repairers):
            testbed.recover_repairer()
        testbed.run_until(all_done(testbed), limit=5000.0)
        completed = set()
        for repairer in reps + testbed.repairers:
            completed |= set(repairer.completed)
        assert completed == set(report.failed_chunks)


class TestPerShardCrashClock:
    """Crash instants are kept per shard, so overlapping failovers each
    measure their own MTTR (the scalar-clock regression ISSUE 9 fixes)."""

    def test_staggered_crashes_keep_distinct_instants(self):
        testbed = make_testbed(0)
        report = testbed.fail_nodes(1)
        reps = testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=2
        )
        testbed.inject_coordinator_crash(0.05, shard=0)
        testbed.inject_coordinator_crash(0.11, shard=1)
        testbed.run_until(
            lambda: all(r.crashed for r in reps), step=0.01, limit=1000.0
        )
        times = testbed._coordinator_crash_times
        assert set(times) == {0, 1}
        assert times[0] == pytest.approx(0.05)
        assert times[1] == pytest.approx(0.11)

    def test_each_recovery_measures_its_own_latency(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            testbed = make_testbed(0)
            report = testbed.fail_nodes(1)
            reps = testbed.start_sharded_repair(
                "ChameleonEC", report.failed_chunks, shards=2
            )
            testbed.inject_coordinator_crash(0.05, shard=0)
            testbed.inject_coordinator_crash(0.11, shard=1)
            testbed.run_until(
                lambda: all(r.crashed for r in reps), step=0.01, limit=1000.0
            )
            sim = testbed.cluster.sim
            sim.run(until=0.2)
            testbed.recover_repairer(shard=0)  # 0.15 s after its crash
            sim.run(until=0.31)
            testbed.recover_repairer(shard=1)  # 0.20 s after its crash
            latency = registry.histogram("journal.recovery.latency_s")
            assert latency.count == 2
            assert latency.min == pytest.approx(0.15)
            assert latency.max == pytest.approx(0.20)
            assert not testbed._coordinator_crash_times
            testbed.run_until(all_done(testbed), limit=5000.0)
        finally:
            set_registry(previous)


# -- the determinism battery ---------------------------------------------------

_CRASH_FREE_BYTES: dict = {}


def run_crash_free(seed, shards):
    """The reference run: same seed and shard count, no crash."""
    key = (seed, shards)
    if key not in _CRASH_FREE_BYTES:
        testbed = make_testbed(seed)
        report = testbed.fail_nodes(1)
        testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=shards
        )
        testbed.run_until(all_done(testbed), limit=5000.0)
        _CRASH_FREE_BYTES[key] = {
            chunk: testbed.chunk_store.get(chunk).tobytes()
            for chunk in report.failed_chunks
        }
    return _CRASH_FREE_BYTES[key]


def run_crash_recover(seed, crash_at, shards):
    """Crash the largest shard, recover it, finish; observable outcome."""
    testbed = make_testbed(seed)
    report = testbed.fail_nodes(1)
    reps = testbed.start_sharded_repair(
        "ChameleonEC", report.failed_chunks, shards=shards
    )
    parts = testbed.shard_router.partition(report.failed_chunks)
    target = max(range(shards), key=lambda s: (len(parts[s]), -s))
    testbed.inject_coordinator_crash(crash_at, shard=target)
    testbed.run_until(lambda: reps[target].crashed, step=0.01, limit=1000.0)
    replacement = testbed.recover_repairer(shard=target)
    testbed.run_until(all_done(testbed), limit=5000.0)
    incarnations = reps + [replacement]
    return {
        "failed": list(report.failed_chunks),
        "orders": [list(r.completed) for r in incarnations],
        "requeue": list(replacement.recovery.requeue),
        "records": [
            (r.kind, r.chunk, r.shard, r.at) for r in testbed.journal.records
        ],
        "payloads": {
            chunk: testbed.chunk_store.get(chunk).tobytes()
            for chunk in report.failed_chunks
        },
        "lost": [c for r in incarnations for c in r.lost],
        "finish": testbed.cluster.sim.now,
    }


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("crash_at", CRASH_TIMES)
def test_sharded_failover_is_deterministic_across_reruns(crash_at, shards):
    """Equal seed + crash time + shard count => identical runs."""
    for seed in SEEDS:
        first = run_crash_recover(seed, crash_at, shards)
        second = run_crash_recover(seed, crash_at, shards)
        assert first == second, (seed, crash_at, shards)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("crash_at", CRASH_TIMES)
def test_recovered_bytes_match_the_crash_free_run(crash_at, shards):
    """A shard failover changes timing, never bytes: every chunk is
    repaired exactly once, to the same reconstruction the crash-free
    N-shard run produces."""
    for seed in SEEDS:
        outcome = run_crash_recover(seed, crash_at, shards)
        assert not outcome["lost"], (seed, crash_at, shards)
        repaired = [c for order in outcome["orders"] for c in order]
        assert len(repaired) == len(set(repaired)), (seed, crash_at, shards)
        assert set(repaired) == set(outcome["failed"]), (seed, crash_at, shards)
        reference = run_crash_free(seed, shards)
        assert outcome["payloads"] == reference, (seed, crash_at, shards)
