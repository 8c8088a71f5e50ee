"""Zombie-coordinator fencing: stale journal writes leave zero trace."""

import pytest

from repro.api import Testbed
from repro.cluster import ChunkId
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultTimeline
from repro.journal import ENQUEUED, Journal, audit_fenced_writes

C1 = ChunkId(0, 0)
C2 = ChunkId(1, 0)


def drive(view, chunk):
    """One full repair lifecycle through a shard view."""
    view.chunk_enqueued(chunk)
    view.plan_chosen(chunk, destination=5, sources=[1, 2], attempt=1)
    view.reads_issued(chunk, transfers=2)
    view.decode_verified(chunk)
    view.writeback_committed(chunk)


class TestStaleWriteRejection:
    def test_fenced_incarnation_writes_are_dropped(self):
        journal = Journal()
        view = journal.shard_view(0)
        view.coordinator_started()
        drive(view, C1)
        accepted = len(journal)
        journal.fence(shard=0)
        fence_len = len(journal)
        # The zombie (same view, stale incarnation) keeps writing.
        drive(view, C2)
        view.attempt_failed(C2, "stalled")
        view.chunk_lost(C2)
        assert len(journal) == fence_len
        assert journal.fenced_writes == 7
        assert accepted < fence_len  # only the fence record moved the log

    def test_rejected_writes_leave_journal_bytes_identical(self):
        def build(zombie_writes):
            journal = Journal()
            view = journal.shard_view(0)
            view.coordinator_started()
            drive(view, C1)
            journal.fence(shard=0)
            if zombie_writes:
                drive(view, C2)  # every one rejected
            return journal

        # A fenced zombie hammering the log must be indistinguishable —
        # record for record — from a zombie that never wrote at all.
        assert build(True).records == build(False).records
        assert build(True).fenced_writes == 5

    def test_next_incarnation_writes_accepted(self):
        journal = Journal()
        zombie = journal.shard_view(0)
        zombie.coordinator_started()
        journal.fence(shard=0)
        successor = journal.shard_view(0)
        successor.coordinator_started()
        before = len(journal)
        drive(successor, C1)
        assert len(journal) == before + 5
        # The zombie stays rejected even after the successor opens.
        zombie.chunk_enqueued(C2)
        assert len(journal) == before + 5

    def test_unstarted_view_bypasses_the_check(self):
        # Pre-partition surface: a view that never called
        # coordinator_started writes with epoch=None and is not judged.
        journal = Journal()
        view = journal.shard_view(0)
        journal.shard_view(0).coordinator_started()
        journal.fence(shard=0)
        view.chunk_enqueued(C1)
        assert journal.fenced_writes == 0
        assert len(journal) == 3

    def test_sibling_shards_unaffected_by_fence(self):
        journal = Journal()
        fenced = journal.shard_view(0)
        healthy = journal.shard_view(1)
        fenced.coordinator_started()
        healthy.coordinator_started()
        journal.fence(shard=0)
        drive(healthy, C2)
        assert journal.fenced_writes == 0
        fenced.chunk_enqueued(C1)
        assert journal.fenced_writes == 1

    def test_audit_flags_hand_forged_stale_records(self):
        # The auditor is the independent check: force a chunk record
        # into the log while the shard is fenced (simulating a buggy
        # journal that accepted it) and the replay must flag it.
        journal = Journal()
        view = journal.shard_view(0)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        journal.fence(shard=0)
        journal.append(ENQUEUED, C2, shard=0)  # the raw path judges nothing
        violations = audit_fenced_writes(journal)
        assert [v.chunk for v in violations] == [C2]


class TestZombieScenario:
    """Integration: a pinned coordinator partitioned away from the log."""

    @pytest.fixture(scope="class")
    def outcome(self):
        config = ExperimentConfig.scaled(0.05, seed=0, chunk_mb=16.0)
        testbed = Testbed.build(config)
        testbed.enable_journal()
        testbed.enable_integrity()
        testbed.cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        repairers = testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=2
        )
        home = testbed.cluster.storage_nodes[-1].id
        testbed.place_coordinator(repairers[0], home)
        timeline = FaultTimeline().partition(0.2, [[home]], duration=4.0)
        testbed.install_faults(timeline)
        testbed.run_until(
            lambda: testbed.zombie_stepdowns > 0
            or testbed.cluster.sim.now > 60.0,
            step=0.5,
        )
        assert testbed.zombie_stepdowns == 1
        testbed.recover_repairer(shard=0)
        testbed.run_until(
            lambda: all(
                not getattr(r, "crashed", False) and r.done
                for r in testbed.repairers
            ),
            step=0.5,
        )
        return testbed, report

    def test_fence_rejected_the_zombies_writes(self, outcome):
        testbed, _ = outcome
        assert testbed.journal.fenced_writes > 0

    def test_no_stale_write_was_accepted(self, outcome):
        testbed, _ = outcome
        assert audit_fenced_writes(testbed.journal) == []

    def test_post_heal_recovery_is_complete_and_verified(self, outcome):
        testbed, report = outcome
        assert all(
            testbed.chunk_store.verify(c) for c in report.failed_chunks
        )

    def test_healed_journal_matches_a_zombie_silent_log(self, outcome):
        # Replay equivalence: folding the accepted records must yield a
        # state with no fenced shard and no open work — exactly what a
        # log written without any zombie interference folds to.
        testbed, _ = outcome
        state = testbed.journal.replay()
        assert not state.fenced_of(0) and not state.fenced_of(1)
        assert testbed.journal.state.fenced_of(0) == state.fenced_of(0)


def _mentions(value, obj) -> bool:
    """True if ``value`` holds ``obj`` — or is keyed on its ``id()``."""
    if isinstance(value, dict):
        return _mentions(list(value), obj) or _mentions(list(value.values()), obj)
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_mentions(item, obj) for item in value)
    return value is obj or (type(value) is int and value == id(obj))


class TestPinDiesWithItsCoordinator:
    """The home pin is a fact about one incarnation. Kept in a side
    table keyed on ``id()``, it outlived the object: CPython reuses
    addresses, so a later coordinator could inherit the pin and get
    zombie-fenced by a partition it was never subject to."""

    def test_replacement_is_unpinned_and_survives_the_same_partition(self):
        config = ExperimentConfig.scaled(0.05, seed=0, chunk_mb=16.0)
        testbed = Testbed.build(config)
        testbed.enable_journal()
        testbed.enable_integrity()
        testbed.cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        repairers = testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=2
        )
        dead = repairers[0]
        home = testbed.cluster.storage_nodes[-1].id
        testbed.place_coordinator(dead, home)
        assert dead.home == home
        testbed.install_faults(
            FaultTimeline().partition(0.2, [[home]], duration=4.0)
        )
        testbed.run_until(
            lambda: testbed.zombie_stepdowns > 0
            or testbed.cluster.sim.now > 60.0,
            step=0.5,
        )
        assert testbed.zombie_stepdowns == 1 and dead.crashed

        replacement = testbed.recover_repairer(shard=0)
        assert replacement.shard == 0 and replacement.home is None
        leftovers = [
            name for name, value in vars(testbed).items() if _mentions(value, dead)
        ]
        assert leftovers == []

        # The identical cut again: nobody is pinned, nobody is fenced.
        fenced_before = testbed.journal.fenced_writes
        healed_at = testbed.cluster.sim.now + 0.2 + 4.0
        testbed.install_faults(
            FaultTimeline().partition(0.2, [[home]], duration=4.0)
        )
        testbed.run_until(
            lambda: testbed.cluster.sim.now > healed_at
            and all(r.done for r in testbed.repairers),
            step=0.5,
        )
        assert testbed.zombie_stepdowns == 1
        assert not replacement.crashed
        assert testbed.journal.fenced_writes == fenced_before
        assert audit_fenced_writes(testbed.journal) == []
        assert all(testbed.chunk_store.verify(c) for c in report.failed_chunks)


class TestPlacementValidation:
    def test_place_coordinator_needs_journal(self):
        config = ExperimentConfig.scaled(0.05, seed=0)
        testbed = Testbed.build(config)
        repairer = testbed.make_repairer("ChameleonEC")
        with pytest.raises(ReproError):
            testbed.place_coordinator(repairer, 1)

    def test_unsharded_coordinator_is_zombie_fenced(self):
        """An unsharded coordinator is shard 0 of a one-shard plane: it
        can be pinned, and a partition that cuts its home off from the
        journal fences it exactly like a shard-bound one."""
        config = ExperimentConfig.scaled(0.05, seed=0, chunk_mb=16.0)
        testbed = Testbed.build(config)
        testbed.enable_journal()
        testbed.enable_integrity()
        testbed.cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        home = testbed.cluster.storage_nodes[-1].id
        testbed.place_coordinator(repairer, home)
        testbed.install_faults(
            FaultTimeline().partition(0.1, [[home]], duration=4.0)
        )
        testbed.run_until(
            lambda: testbed.zombie_stepdowns > 0
            or testbed.cluster.sim.now > 60.0,
            step=0.5,
        )
        assert testbed.zombie_stepdowns == 1 and repairer.crashed
        assert testbed.journal.fenced_writes > 0
        replacement = testbed.recover_repairer()
        assert replacement.shard == 0
        testbed.run_until(lambda: replacement.done, step=0.5)
        assert testbed.zombie_stepdowns == 1
        assert audit_fenced_writes(testbed.journal) == []
        assert all(testbed.chunk_store.verify(c) for c in report.failed_chunks)
