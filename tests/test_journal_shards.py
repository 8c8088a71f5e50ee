"""Unit tests for the sharded journal surface: per-shard epochs and
fences, shard-bound leases, the JournalShard write surface and
shard-scoped reconcile plans, plus a hypothesis property that the live
fold equals replay over multi-shard churn."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.stripes import ChunkId
from repro.errors import SimulationError
from repro.journal import (
    ATTEMPT_FAILED,
    COMMITTED,
    COORDINATOR_START,
    ENQUEUED,
    LOST,
    PLAN_CHOSEN,
    Journal,
    JournalShard,
    JournalState,
    Lease,
    reconcile,
)
from repro.sim import Simulator

C1 = ChunkId(0, 1)
C2 = ChunkId(1, 2)
C3 = ChunkId(2, 0)


def make_journal(**kwargs) -> Journal:
    return Journal(Simulator(), **kwargs)


def make_views(journal: Journal, shards: int) -> list[JournalShard]:
    """One started coordinator write surface per shard."""
    views = [journal.shard_view(shard) for shard in range(shards)]
    for view in views:
        view.coordinator_started()
    return views


class TestPerShardEpochs:
    def test_epochs_advance_independently(self):
        journal = make_journal()
        journal.shard_view(0).coordinator_started()
        journal.shard_view(2).coordinator_started()
        assert journal.shard_view(2).coordinator_started() == 2
        assert journal.epoch_of(0) == 1
        assert journal.epoch_of(1) == 0
        assert journal.epoch_of(2) == 2
        assert journal.state.epoch_of(2) == 2  # the fold owns the epochs

    def test_fence_is_scoped_to_one_shard(self):
        journal = make_journal(lease_duration=1000.0)
        zero, one = make_views(journal, 2)
        zero.chunk_enqueued(C1)
        one.chunk_enqueued(C2)
        zero.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        one.plan_chosen(C2, destination=4, sources=[5], attempt=1)
        journal.fence(shard=0)
        state = journal.state
        assert state.fenced_of(0) and not state.fenced_of(1)
        # Only the fenced shard's lease is void.
        assert state.reexecutable(C1, now=0.0)
        assert not state.reexecutable(C2, now=0.0)

    def test_fence_idempotent_per_shard(self):
        journal = make_journal()
        journal.shard_view(3).coordinator_started()
        journal.fence(shard=3)
        n = len(journal.records)
        journal.fence(shard=3)
        assert len(journal.records) == n
        journal.fence(shard=0)  # a different shard still appends
        assert len(journal.records) == n + 1

    def test_restart_unfences_only_its_shard(self):
        journal = make_journal()
        make_views(journal, 2)
        journal.fence(shard=0)
        journal.fence(shard=1)
        journal.shard_view(1).coordinator_started()
        assert journal.state.fenced_of(0)
        assert not journal.state.fenced_of(1)
        assert journal.state.epoch_of(1) == 2

    def test_lease_carries_its_granting_shard_and_epoch(self):
        journal = make_journal(lease_duration=30.0)
        journal.shard_view(1).coordinator_started()
        view = journal.shard_view(1)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        lease = journal.state.leases[C1]
        assert lease.shard == 1 and lease.epoch == 2

    def test_shard_of_tracks_the_last_writer(self):
        journal = make_journal()
        journal.shard_view(2).chunk_enqueued(C1)
        assert journal.state.shard_of[C1] == 2
        journal.shard_view(0).chunk_enqueued(C1)  # rerouted batch
        assert journal.state.shard_of[C1] == 0

    def test_open_work_filters_by_shard(self):
        journal = make_journal()
        zero, one = make_views(journal, 2)
        zero.chunk_enqueued(C1)
        one.chunk_enqueued(C2)
        one.chunk_enqueued(C3)
        assert journal.state.open_work() == [C1, C2, C3]
        assert journal.state.open_work(shard=1) == [C2, C3]
        assert journal.state.open_work(shard=0) == [C1]


class TestLeaseBoundary:
    """The half-open hold: at exactly ``now == expires_at`` the lease
    has lapsed (see the Lease docstring)."""

    def test_expired_at_the_exact_expiry_instant(self):
        lease = Lease(chunk=C1, epoch=1, acquired_at=0.0, expires_at=10.0)
        assert not lease.expired(9.999999)
        assert lease.expired(10.0)
        assert lease.expired(10.000001)

    def test_reexecutable_at_the_exact_expiry_instant(self):
        journal = make_journal(lease_duration=10.0)
        (view,) = make_views(journal, 1)
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        assert not journal.state.reexecutable(C1, now=9.999999)
        assert journal.state.reexecutable(C1, now=10.0)


class TestJournalShardProxy:
    def test_negative_shard_rejected(self):
        with pytest.raises(SimulationError):
            make_journal().shard_view(-1)

    def test_view_prebinds_the_shard_on_every_write(self):
        journal = make_journal()
        view = journal.shard_view(3)
        assert isinstance(view, JournalShard)
        view.coordinator_started()
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        view.reads_issued(C1, transfers=4)
        view.attempt_failed(C1, "timeout")
        view.chunk_enqueued(C2)
        view.decode_verified(C2)
        view.writeback_committed(C2)
        view.chunk_lost(C1)
        assert all(r.shard == 3 for r in journal.records)
        assert journal.state.shard_of == {C1: 3, C2: 3}

    def test_view_reads_its_shards_epoch(self):
        journal = make_journal()
        view = journal.shard_view(2)
        journal.shard_view(0).coordinator_started()
        assert view.incarnation is None
        assert view.coordinator_started() == 1 and journal.epoch_of(2) == 1
        assert view.incarnation == 1


class TestShardReconcile:
    def _journal(self):
        journal = make_journal(lease_duration=1000.0)
        zero, one = make_views(journal, 2)
        # Shard 0: one committed, one pending. Shard 1: one leased.
        zero.chunk_enqueued(C1)
        zero.writeback_committed(C1)
        zero.chunk_enqueued(C2)
        one.chunk_enqueued(C3)
        one.plan_chosen(C3, destination=2, sources=[3], attempt=1)
        return journal

    def test_shard_scoped_plan_sees_only_its_chunks(self):
        state = self._journal().replay()
        plan = reconcile(state, now=0.0, shard=0)
        assert plan.shard == 0 and plan.epoch == 1
        assert plan.completed == [C1] and plan.requeue == [C2]
        assert not plan.blocked  # C3 belongs to shard 1

    def test_sibling_shard_lease_stays_blocked_in_its_own_plan(self):
        journal = self._journal()
        journal.fence(shard=0)  # fencing shard 0 must not free C3
        plan = reconcile(journal.replay(), now=0.0, shard=1)
        assert plan.blocked == [C3] and not plan.requeue
        journal.fence(shard=1)
        plan = reconcile(journal.replay(), now=0.0, shard=1)
        assert plan.requeue == [C3] and not plan.blocked


class TestShardSerialisation:
    """The record is the log's durable form."""

    def test_one_shard_journal_names_its_shard_everywhere(self):
        """One form for every plane: a single-coordinator journal writes
        shard 0 exactly where a sharded one writes its ids — in every
        record, lease and chunk-map entry."""
        journal = make_journal()
        (view,) = make_views(journal, 1)
        view.chunk_enqueued(C1)
        view.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        assert all(record.shard == 0 for record in journal.records)
        assert journal.state.leases[C1].shard == 0
        assert journal.state.shard_of == {C1: 0}


# -- hypothesis: the live fold is replay, under arbitrary multi-shard churn -----

CHUNKS = [ChunkId(i, i % 3) for i in range(6)]

_op = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 2)),
    st.tuples(st.just("fence"), st.integers(0, 2)),
    st.tuples(st.just(ENQUEUED), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just(PLAN_CHOSEN), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just(COMMITTED), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just(ATTEMPT_FAILED), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just(LOST), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("tick"), st.integers(1, 50)),
)


def _drive(journal: Journal, ops) -> None:
    """Raw appends: churn the fold without the zombie check's filter."""
    for op in ops:
        kind = op[0]
        if kind == "start":
            journal.append(
                COORDINATOR_START, shard=op[1], epoch=journal.epoch_of(op[1]) + 1
            )
        elif kind == "fence":
            journal.fence(shard=op[1])
        elif kind == "tick":
            journal.sim.run(until=journal.sim.now + op[1] / 10.0)
        elif kind == PLAN_CHOSEN:
            journal.append(
                kind, CHUNKS[op[1]], shard=op[2],
                lease_expires=journal.sim.now + journal.lease_duration,
            )
        else:
            journal.append(kind, CHUNKS[op[1]], shard=op[2])


def _fold(state: JournalState) -> tuple:
    return (
        [state.epoch_of(s) for s in range(3)],
        [state.fenced_of(s) for s in range(3)],
        list(state.pending.items()),
        list(state.leases.items()),
        list(state.committed.items()),
        list(state.lost.items()),
        state.shard_of,
    )


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_live_fold_equals_replay_under_multi_shard_churn(ops):
    """Any interleaving of multi-shard epochs, fences and lease churn
    folds live to exactly what a fresh replay of the log rebuilds."""
    journal = make_journal(lease_duration=5.0)
    _drive(journal, ops)
    assert _fold(journal.replay()) == _fold(journal.state)
    assert [r.seq for r in journal.records] == list(range(len(journal)))
