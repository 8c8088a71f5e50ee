"""End-to-end coordinator crash & failover through the Testbed facade.

The acceptance battery of the durable control plane: a seeded
:class:`~repro.faults.CoordinatorCrash` mid-repair, then
:meth:`Testbed.recover_repairer` replaying the journal — every chunk
repaired exactly once, byte-exact, no orphaned REPAIR_TAG flows and no
leaked progress-tracker state.
"""

import numpy as np
import pytest

from repro.api import Testbed
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultTimeline
from repro.journal import audit_fenced_writes
from repro.sim.resources import REPAIR_TAG


def make_testbed(seed=7):
    testbed = Testbed.build(ExperimentConfig.scaled(
        0.05, num_nodes=12, num_clients=2, code="RS(4,2)",
        chunk_mb=16.0, num_chunks=12, seed=seed,
    ))
    testbed.enable_journal()
    testbed.enable_integrity()
    return testbed


def crash_and_recover(testbed, crash_at, *, algorithm="ChameleonEC", step=0.01):
    """Fail a node, repair, crash the coordinator, recover; return both."""
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer(algorithm)
    repairer.repair(report.failed_chunks)
    testbed.inject_coordinator_crash(crash_at)
    testbed.run_until(lambda: repairer.crashed, step=step, limit=1000.0)
    replacement = testbed.recover_repairer()
    testbed.run_until(lambda: replacement.done, limit=5000.0)
    return report, repairer, replacement


@pytest.mark.parametrize("algorithm", ["ChameleonEC", "CR", "PPR", "ECPipe"])
class TestCrashTeardown:
    """Crash teardown is the engine's: identical under every policy."""

    def crashed_repairer(self, algorithm):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer(algorithm)
        repairer.repair(report.failed_chunks)
        testbed.inject_coordinator_crash(0.05)
        testbed.run_until(lambda: repairer.crashed, step=0.01, limit=100.0)
        return testbed, report, repairer

    def test_crash_cancels_all_repair_flows(self, algorithm):
        testbed, _, repairer = self.crashed_repairer(algorithm)
        assert testbed.cluster.transfers.live_transfers(tag=REPAIR_TAG) == []
        assert not repairer.in_flight and not repairer.pending
        if algorithm == "ChameleonEC":
            assert not repairer.tracker.tasks

    def test_crashed_coordinator_is_inert(self, algorithm):
        testbed, report, repairer = self.crashed_repairer(algorithm)
        completed = len(repairer.completed)
        assert completed < len(report.failed_chunks)  # crashed mid-repair
        # Pending timers (phase ends, watchdogs, retries) must all no-op.
        testbed.cluster.sim.run(until=testbed.cluster.sim.now + 100.0)
        assert len(repairer.completed) == completed
        assert not repairer.done  # a dead coordinator never reports success
        assert repairer.add_chunks(report.failed_chunks) == []

    def test_crash_fences_the_journal(self, algorithm):
        testbed, _, _ = self.crashed_repairer(algorithm)
        assert testbed.journal.state.fenced_of(0)


class TestExactlyOnceRecovery:
    @pytest.mark.parametrize("algorithm", ["ChameleonEC", "CR", "PPR"])
    def test_every_chunk_repaired_exactly_once(self, algorithm):
        testbed = make_testbed()
        report, old, new = crash_and_recover(testbed, 0.08, algorithm=algorithm)
        repaired = set(old.completed) | set(new.completed)
        assert repaired == set(report.failed_chunks)
        assert not set(old.completed) & set(new.completed)  # no double repair
        assert not new.lost and not old.lost

    def test_reconstructions_are_byte_exact(self):
        testbed = make_testbed()
        report, _, _ = crash_and_recover(testbed, 0.08)
        for chunk in report.failed_chunks:
            assert testbed.chunk_store.verify(chunk), chunk

    def test_no_orphaned_flows_or_tracker_state_after_recovery(self):
        testbed = make_testbed()
        _, old, new = crash_and_recover(testbed, 0.08)
        assert testbed.cluster.transfers.live_transfers(tag=REPAIR_TAG) == []
        for repairer in (old, new):
            tracker = getattr(repairer, "tracker", None)
            if tracker is not None:
                assert all(
                    t.transfer.done or t.transfer.cancelled
                    for t in tracker.tasks
                )

    def test_committed_chunks_are_never_reexecuted(self):
        testbed = make_testbed()
        report, old, new = crash_and_recover(testbed, 0.15)
        plan = new.recovery
        assert set(plan.completed) == set(old.completed)
        assert set(plan.requeue) == set(report.failed_chunks) - set(old.completed)
        assert set(new.completed) == set(plan.requeue)

    def test_crash_after_completion_recovers_to_noop(self):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.run_until(lambda: repairer.done, limit=5000.0)
        testbed.inject_coordinator_crash(1.0)
        testbed.run_until(lambda: repairer.crashed, limit=1000.0)
        replacement = testbed.recover_repairer()
        assert replacement.recovery.summary()["requeue"] == 0
        assert set(replacement.recovery.completed) == set(report.failed_chunks)
        assert replacement.done

    def test_auto_recovery_via_recover_after(self):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.inject_coordinator_crash(0.08, recover_after=0.5)
        testbed.run_until(
            lambda: len(testbed.repairers) == 1
            and testbed.repairers[0] is not repairer
            and testbed.repairers[0].done,
            step=0.05,
            limit=5000.0,
        )
        new = testbed.repairers[0]
        assert set(repairer.completed) | set(new.completed) == set(
            report.failed_chunks
        )
        assert not set(repairer.completed) & set(new.completed)

    def test_rejected_recover_after_arms_no_crash(self):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        with pytest.raises(ReproError, match="recover_after"):
            testbed.inject_coordinator_crash(0.01, recover_after=-1.0)
        assert testbed.fault_timeline is None
        testbed.run_until(lambda: repairer.done, limit=5000.0)
        assert not repairer.crashed
        assert set(repairer.completed) == set(report.failed_chunks)


class TestNodeCrashDuringOutage:
    """A node that dies while its shard has no running coordinator: the
    journal never saw its chunks, so the replacement must adopt them
    from the testbed, not from replay."""

    @staticmethod
    def run(shards):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, seed=0))
        testbed.enable_journal()
        testbed.enable_integrity()
        report = testbed.fail_nodes(1)
        if shards is None:
            testbed.make_repairer("ChameleonEC").repair(report.failed_chunks)
        else:
            testbed.start_sharded_repair(
                "ChameleonEC", report.failed_chunks, shards=shards
            )
        testbed.inject_coordinator_crash(
            0.2, recover_after=1.0, shard=None if shards is None else 0
        )
        crashed = []
        timeline = FaultTimeline().crash(0.5, 5)
        timeline.on(
            "node_crashed",
            lambda _t, report, **_: crashed.extend(report.failed_chunks),
        )
        testbed.install_faults(timeline)
        testbed.run_until(
            lambda: testbed.cluster.sim.now > 1.5
            and all(r.done for r in testbed.repairers),
            step=0.1,
        )
        return testbed, crashed

    @pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "2-shard"])
    def test_replacement_repairs_the_dead_nodes_chunks(self, shards):
        testbed, crashed = self.run(shards)
        assert crashed
        assert testbed.chunk_store.unsound(crashed) == []
        assert audit_fenced_writes(testbed.journal) == []
        assert not any(r.lost for r in testbed.repairers)
        # A helper whose node died after its read is a loss, not a
        # corruption nobody injected.
        assert testbed.ledger.unexplained == []

    def test_fenced_zombie_does_not_swallow_the_dead_nodes_chunks(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, seed=0, chunk_mb=16.0))
        testbed.enable_journal()
        testbed.enable_integrity()
        testbed.cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        home = testbed.cluster.storage_nodes[-1].id
        testbed.place_coordinator(repairer, home)
        crashed = []
        timeline = FaultTimeline().partition(0.1, [[home]], duration=4.0).crash(1.0, 5)
        timeline.on(
            "node_crashed",
            lambda _t, report, **_: crashed.extend(report.failed_chunks),
        )
        testbed.install_faults(timeline)
        testbed.run_until(lambda: testbed.zombie_stepdowns > 0, step=0.5, limit=60.0)
        replacement = testbed.recover_repairer()
        testbed.run_until(lambda: replacement.done, step=0.5)
        assert crashed
        assert testbed.chunk_store.unsound(crashed) == []
        assert audit_fenced_writes(testbed.journal) == []


def corrupt_a_healthy_stripe(testbed, failed, *, last):
    """Silently corrupt the first (or ``last``) chunk in scan order that
    shard 0 owns in a stripe the repair does not touch, so only the
    scrubber can find it."""
    busy = {c.stripe for c in failed}
    router = testbed.shard_router
    victims = [
        c for c in testbed.chunk_store.chunks()
        if c.stripe not in busy and (router is None or router.shard_of(c) == 0)
    ]
    victim = victims[-1 if last else 0]
    testbed.chunk_store.corrupt(victim, rng=np.random.default_rng(4))
    testbed.ledger.record_injection(victim, "corruption")
    return victim


def assert_restored(testbed, victim):
    assert testbed.ledger.records[victim].restored_at is not None
    assert not testbed.injector.is_quarantined(victim)
    assert testbed.chunk_store.verify(victim)


class TestDetectionDuringOutage:
    """A scrub detection is newly found work like a dead node's chunk:
    while its shard has no running coordinator, the replacement adopts
    it (the scrubber never rescans a quarantined chunk)."""

    @pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "2-shard"])
    def test_replacement_restores_a_detection_made_while_down(self, shards):
        testbed = make_testbed()
        scrubber = testbed.start_scrubber(400.0, passes=1)
        report = testbed.fail_nodes(1)
        if shards is None:
            testbed.make_repairer("ChameleonEC").repair(report.failed_chunks)
        else:
            testbed.start_sharded_repair(
                "ChameleonEC", report.failed_chunks, shards=shards
            )
        testbed.inject_coordinator_crash(0.05, shard=None if shards is None else 0)
        testbed.run_until(
            lambda: testbed.repairers[0].crashed, step=0.01, limit=100.0
        )
        # Scanned last: the scrubber reaches it only after the crash.
        victim = corrupt_a_healthy_stripe(testbed, report.failed_chunks, last=True)
        testbed.run_until(lambda: victim in scrubber.detected, step=0.5, limit=100.0)
        assert testbed.repairers[0].crashed and testbed.injector.is_quarantined(victim)
        testbed.recover_repairer(shard=0)
        testbed.run_until(lambda: all(r.done for r in testbed.repairers))
        assert_restored(testbed, victim)
        assert audit_fenced_writes(testbed.journal) == []

    def test_detection_skips_a_fenced_zombie_for_its_successor(self):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        zombie = testbed.make_repairer("ChameleonEC")
        zombie.repair(report.failed_chunks)
        home = testbed.cluster.storage_nodes[-1].id
        testbed.place_coordinator(zombie, home)
        adopted = []
        zombie.on("chunks_added", lambda _r, chunks: adopted.extend(chunks))
        testbed.install_faults(FaultTimeline().partition(0.05, [[home]], duration=4.0))
        testbed.cluster.sim.run(until=0.1)  # fenced: the zombie still runs
        # Scanned first, before any scan stalls on the cut-off node.
        victim = corrupt_a_healthy_stripe(testbed, report.failed_chunks, last=False)
        scrubber = testbed.start_scrubber(400.0, passes=1)
        testbed.run_until(lambda: victim in scrubber.detected, step=0.05, limit=4.0)
        assert zombie.running and testbed.zombie_stepdowns == 0
        testbed.run_until(lambda: testbed.zombie_stepdowns > 0, step=0.5, limit=60.0)
        successor = testbed.recover_repairer()
        testbed.run_until(lambda: successor.done, step=0.5)
        assert victim not in adopted
        assert victim in successor.recovery.requeue
        assert_restored(testbed, victim)
        assert audit_fenced_writes(testbed.journal) == []


def test_a_later_scrubber_routes_detections_to_the_owning_shard():
    """Sharding is the testbed's: a scrubber started after the sharded
    repair still hands each detection to its owning shard alone."""
    testbed = make_testbed()
    report = testbed.fail_nodes(1)
    repairers = testbed.start_sharded_repair(
        "ChameleonEC", report.failed_chunks, shards=2
    )
    adopted = {0: [], 1: []}
    for shard, repairer in enumerate(repairers):
        repairer.on(
            "chunks_added", lambda _r, chunks, s=shard: adopted[s].extend(chunks)
        )
    victim = corrupt_a_healthy_stripe(testbed, report.failed_chunks, last=False)
    scrubber = testbed.start_scrubber(400.0, passes=1)
    testbed.run_until(
        lambda: not scrubber.running and all(r.done for r in repairers), step=0.5
    )
    assert adopted == {0: [victim], 1: []}
    assert_restored(testbed, victim)


class TestRecoveryGuards:
    def test_recover_without_journal_raises(self):
        testbed = Testbed.build(ExperimentConfig.scaled(
            0.05, num_nodes=10, num_clients=0, code="RS(4,2)",
            chunk_mb=8.0, num_chunks=4,
        ))
        with pytest.raises(ReproError, match="journal"):
            testbed.recover_repairer()

    def test_crash_injection_without_journal_raises(self):
        testbed = Testbed.build(ExperimentConfig.scaled(
            0.05, num_nodes=10, num_clients=0, code="RS(4,2)",
            chunk_mb=8.0, num_chunks=4,
        ))
        with pytest.raises(ReproError, match="journal"):
            testbed.inject_coordinator_crash(1.0)

    def test_recover_without_crash_raises(self):
        testbed = make_testbed()
        with pytest.raises(ReproError, match="no crashed repairer"):
            testbed.recover_repairer()

    def test_replacement_keeps_algorithm_and_overrides(self):
        testbed = make_testbed()
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC", t_phase=9.0)
        repairer.repair(report.failed_chunks)
        testbed.inject_coordinator_crash(0.05)
        testbed.run_until(lambda: repairer.crashed, step=0.01, limit=100.0)
        replacement = testbed.recover_repairer()
        assert type(replacement) is type(repairer)
        assert replacement.t_phase == 9.0
        assert replacement.journal.journal is testbed.journal
