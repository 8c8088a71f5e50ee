"""Unit tests for the write-ahead journal: records, state fold, leases,
and store-reconciled recovery plans."""

import pytest

from repro.cluster.stripes import ChunkId
from repro.errors import SimulationError
from repro.journal import (
    ENQUEUED,
    Journal,
    JournalRecord,
    JournalShard,
    JournalState,
    Lease,
    reconcile,
)
from repro.sim import Simulator

C1 = ChunkId(0, 1)
C2 = ChunkId(1, 2)
C3 = ChunkId(2, 0)


def make_journal(**kwargs) -> tuple[Journal, JournalShard]:
    """A fresh journal and its one-shard coordinator's write surface."""
    journal = Journal(Simulator(), **kwargs)
    return journal, journal.shard_view(0)


class TestAppendAndFold:
    def test_records_are_stamped_with_virtual_time(self):
        journal, view = make_journal()
        journal.sim.run(until=7.5)
        view.chunk_enqueued(C1)
        record = journal.records[-1]
        assert record.at == 7.5 and record.kind == ENQUEUED

    def test_sequence_numbers_are_monotonic(self):
        journal, view = make_journal()
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.chunk_enqueued(C2)
        assert [r.seq for r in journal.records] == [0, 1, 2]

    def test_live_state_equals_replay(self):
        journal, view = make_journal()
        view.coordinator_started()
        for chunk in (C1, C2, C3):
            view.chunk_enqueued(chunk)
        view.plan_chosen(C1, destination=3, sources=[1, 2], attempt=1)
        view.writeback_committed(C1)
        view.plan_chosen(C2, destination=4, sources=[1, 5], attempt=1)
        view.attempt_failed(C2, "helper crashed")
        view.chunk_lost(C3)
        replayed = journal.replay()
        assert list(replayed.pending) == list(journal.state.pending) == [C2]
        assert list(replayed.committed) == [C1]
        assert list(replayed.lost) == [C3]
        assert not replayed.leases

    def test_enqueue_reopens_a_committed_chunk(self):
        journal, view = make_journal()
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        view.writeback_committed(C1)
        # Integrity reject: the data plane re-enqueues via add_chunks.
        view.chunk_enqueued(C1)
        state = journal.replay()
        assert list(state.pending) == [C1] and not state.committed

    def test_unknown_record_kind_rejected(self):
        state = JournalState()
        with pytest.raises(ValueError):
            state.apply(JournalRecord(seq=0, at=0.0, kind="nonsense"))

    def test_constructor_validation(self):
        with pytest.raises(SimulationError):
            Journal(lease_duration=0.0)


class TestLeases:
    def test_plan_chosen_grants_a_lease_until_expiry(self):
        journal, view = make_journal(lease_duration=30.0)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        journal.sim.run(until=5.0)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        lease = journal.state.leases[C1]
        assert lease == Lease(chunk=C1, epoch=1, acquired_at=5.0, expires_at=35.0)
        assert not journal.state.reexecutable(C1, now=10.0)
        assert journal.state.reexecutable(C1, now=35.0)  # expired

    def test_fencing_voids_live_leases(self):
        journal, view = make_journal(lease_duration=1000.0)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        assert not journal.state.reexecutable(C1, now=0.0)
        journal.fence()
        assert journal.state.reexecutable(C1, now=0.0)

    def test_fence_is_idempotent_per_epoch(self):
        journal, view = make_journal()
        view.coordinator_started()
        journal.fence()
        n = len(journal.records)
        journal.fence()
        assert len(journal.records) == n

    def test_new_epoch_voids_older_leases(self):
        journal, view = make_journal(lease_duration=1000.0)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        view.coordinator_started()  # epoch 2, no fence record
        assert journal.state.reexecutable(C1, now=0.0)

    def test_attempt_failed_releases_the_lease(self):
        journal, view = make_journal()
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        view.attempt_failed(C1, "timeout")
        assert C1 not in journal.state.leases
        assert list(journal.state.pending) == [C1]


class _FakeStore:
    """Minimal has()/verify() double for reconcile()."""

    def __init__(self, verified=(), unverified=()):
        self._verified = set(verified)
        self._present = self._verified | set(unverified)

    def has(self, chunk):
        return chunk in self._present

    def verify(self, chunk):
        return chunk in self._verified


class TestReconcile:
    def _state(self, journal_setup):
        journal, view = make_journal(lease_duration=1000.0)
        journal_setup(view)
        return journal.replay()

    def test_committed_and_verified_stays_completed(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.writeback_committed(C1)

        plan = reconcile(
            self._state(setup), now=0.0, chunk_store=_FakeStore(verified=[C1])
        )
        assert plan.completed == [C1] and not plan.requeue

    def test_committed_but_corrupt_is_demoted(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.writeback_committed(C1)

        plan = reconcile(
            self._state(setup), now=0.0, chunk_store=_FakeStore(unverified=[C1])
        )
        assert plan.demoted == [C1] and plan.requeue == [C1]

    def test_in_flight_verified_bytes_are_adopted(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.plan_chosen(C1, destination=2, sources=[3], attempt=1)

        plan = reconcile(
            self._state(setup), now=0.0, chunk_store=_FakeStore(verified=[C1])
        )
        assert plan.adopted_from_store == [C1]
        assert plan.completed == [C1] and not plan.requeue

    def test_live_lease_blocks_without_fence(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.plan_chosen(C1, destination=2, sources=[3], attempt=1)

        plan = reconcile(self._state(setup), now=0.0, chunk_store=None)
        assert plan.blocked == [C1]

    def test_fenced_lease_requeues(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.plan_chosen(C1, destination=2, sources=[3], attempt=1)
            v.journal.fence()

        plan = reconcile(self._state(setup), now=0.0, chunk_store=None)
        assert plan.requeue == [C1] and not plan.blocked

    def test_without_store_the_journal_is_trusted(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.writeback_committed(C1)
            v.chunk_enqueued(C2)

        plan = reconcile(self._state(setup), now=0.0, chunk_store=None)
        assert plan.completed == [C1] and plan.requeue == [C2]

    def test_lost_stays_lost(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.chunk_lost(C1)

        plan = reconcile(self._state(setup), now=0.0, chunk_store=None)
        assert plan.lost == [C1] and not plan.requeue

    def test_summary_counts(self):
        def setup(v):
            v.coordinator_started()
            v.chunk_enqueued(C1)
            v.chunk_enqueued(C2)
            v.writeback_committed(C1)

        plan = reconcile(self._state(setup), now=0.0, chunk_store=None)
        assert plan.summary() == {
            "completed": 1, "requeue": 1, "blocked": 0,
            "lost": 0, "demoted": 0, "adopted_from_store": 0,
        }
