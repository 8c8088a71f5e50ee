"""Unit tests for the sharded journal surface: per-shard epochs and
fences, shard-bound leases, the JournalShard write-through proxy,
shard-scoped reconcile plans, and serialisation, plus a hypothesis
round-trip property over multi-shard churn with checkpoint
compaction."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.stripes import ChunkId
from repro.errors import SimulationError
from repro.journal import (
    Journal,
    JournalShard,
    Lease,
    reconcile,
)
from repro.sim import Simulator

C1 = ChunkId(0, 1)
C2 = ChunkId(1, 2)
C3 = ChunkId(2, 0)


def make_journal(**kwargs) -> Journal:
    return Journal(Simulator(), **kwargs)


class TestPerShardEpochs:
    def test_epochs_advance_independently(self):
        journal = make_journal()
        journal.coordinator_started(shard=0)
        journal.coordinator_started(shard=2)
        journal.coordinator_started(shard=2)
        assert journal.epoch_of(0) == 1
        assert journal.epoch_of(1) == 0
        assert journal.epoch_of(2) == 2
        assert journal.state.epoch_of(2) == 2  # the fold owns the epochs

    def test_fence_is_scoped_to_one_shard(self):
        journal = make_journal(lease_duration=1000.0)
        journal.coordinator_started(shard=0)
        journal.coordinator_started(shard=1)
        journal.chunk_enqueued(C1, shard=0)
        journal.chunk_enqueued(C2, shard=1)
        journal.plan_chosen(C1, destination=2, sources=[3], attempt=1, shard=0)
        journal.plan_chosen(C2, destination=4, sources=[5], attempt=1, shard=1)
        journal.fence(shard=0)
        state = journal.state
        assert state.fenced_of(0) and not state.fenced_of(1)
        # Only the fenced shard's lease is void.
        assert state.reexecutable(C1, now=0.0)
        assert not state.reexecutable(C2, now=0.0)

    def test_fence_idempotent_per_shard(self):
        journal = make_journal()
        journal.coordinator_started(shard=3)
        journal.fence(shard=3)
        n = len(journal.records)
        journal.fence(shard=3)
        assert len(journal.records) == n
        journal.fence(shard=0)  # a different shard still appends
        assert len(journal.records) == n + 1

    def test_restart_unfences_only_its_shard(self):
        journal = make_journal()
        journal.coordinator_started(shard=0)
        journal.coordinator_started(shard=1)
        journal.fence(shard=0)
        journal.fence(shard=1)
        journal.coordinator_started(shard=1)
        assert journal.state.fenced_of(0)
        assert not journal.state.fenced_of(1)
        assert journal.state.epoch_of(1) == 2

    def test_lease_carries_its_granting_shard_and_epoch(self):
        journal = make_journal(lease_duration=30.0)
        journal.coordinator_started(shard=1)
        journal.coordinator_started(shard=1)
        journal.chunk_enqueued(C1, shard=1)
        journal.plan_chosen(C1, destination=2, sources=[3], attempt=1, shard=1)
        lease = journal.state.leases[C1]
        assert lease.shard == 1 and lease.epoch == 2

    def test_shard_of_tracks_the_last_writer(self):
        journal = make_journal()
        journal.chunk_enqueued(C1, shard=2)
        assert journal.state.shard_of[C1] == 2
        journal.chunk_enqueued(C1, shard=0)  # rerouted batch
        assert journal.state.shard_of[C1] == 0

    def test_open_work_filters_by_shard(self):
        journal = make_journal()
        journal.chunk_enqueued(C1, shard=0)
        journal.chunk_enqueued(C2, shard=1)
        journal.chunk_enqueued(C3, shard=1)
        assert journal.state.open_work() == [C1, C2, C3]
        assert journal.state.open_work(shard=1) == [C2, C3]
        assert journal.state.open_work(shard=0) == [C1]

    def test_shards_lists_every_touched_partition(self):
        journal = make_journal()
        journal.coordinator_started(shard=2)
        journal.chunk_enqueued(C1, shard=5)
        assert journal.state.shards() == [0, 2, 5]


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
        journal.coordinator_started()
        journal.chunk_enqueued(C1)
        journal.plan_chosen(C1, destination=2, sources=[3], attempt=1)
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
        view.fence()
        assert all(r.shard == 3 for r in journal.records)
        assert journal.state.shard_of == {C1: 3, C2: 3}

    def test_view_reads_its_shards_epoch(self):
        journal = make_journal(lease_duration=7.0)
        view = journal.shard_view(2)
        journal.coordinator_started(shard=0)
        assert view.epoch == 0
        view.coordinator_started()
        assert view.epoch == 1 and journal.epoch_of(2) == 1
        assert view.lease_duration == 7.0
        assert view.state is journal.state

    def test_shard_zero_view_matches_the_plain_journal_bytes(self):
        """`shard_view(0)` is the unsharded journal: identical records,
        identical serialised bytes."""

        def drive(target, journal):
            target.coordinator_started()
            target.chunk_enqueued(C1)
            target.plan_chosen(C1, destination=2, sources=[3], attempt=1)
            target.writeback_committed(C1)
            journal.checkpoint()
            target.chunk_enqueued(C2)
            return journal.to_json()

        plain = make_journal()
        sharded = make_journal()
        assert drive(plain, plain) == drive(sharded.shard_view(0), sharded)


class TestShardReconcile:
    def _journal(self):
        journal = make_journal(lease_duration=1000.0)
        journal.coordinator_started(shard=0)
        journal.coordinator_started(shard=1)
        # Shard 0: one committed, one pending. Shard 1: one leased.
        journal.chunk_enqueued(C1, shard=0)
        journal.writeback_committed(C1, shard=0)
        journal.chunk_enqueued(C2, shard=0)
        journal.chunk_enqueued(C3, shard=1)
        journal.plan_chosen(C3, destination=2, sources=[3], attempt=1, shard=1)
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

    def test_unscoped_plan_spans_every_shard(self):
        plan = reconcile(self._journal().replay(), now=0.0)
        assert plan.shard is None
        assert plan.completed == [C1]
        assert plan.requeue == [C2] and plan.blocked == [C3]


class TestShardSerialisation:
    def test_one_shard_journal_names_its_shard_everywhere(self):
        """One format for every plane: a single-coordinator journal
        writes shard 0 exactly where a sharded one writes its ids."""
        journal = make_journal()
        journal.coordinator_started()
        journal.chunk_enqueued(C1)
        journal.plan_chosen(C1, destination=2, sources=[3], attempt=1)
        journal.checkpoint()
        doc = json.loads(journal.to_json())
        assert set(doc) == {
            "lease_duration", "checkpoint_interval", "seq",
            "compacted_records", "records",
        }
        assert all(record["shard"] == 0 for record in doc["records"])
        snap = doc["records"][-1]["payload"]["state"]
        assert snap["shards"] == [[0, 1, False]]
        assert snap["shard_of"] == [[C1.stripe, C1.index, 0]]
        assert [lease["shard"] for lease in snap["leases"]] == [0]

    def test_sharded_round_trip_restores_epochs_and_shard_map(self):
        journal = make_journal()
        journal.coordinator_started(shard=0)
        journal.coordinator_started(shard=1)
        journal.coordinator_started(shard=1)
        journal.chunk_enqueued(C1, shard=0)
        journal.chunk_enqueued(C2, shard=1)
        journal.plan_chosen(C2, destination=4, sources=[5], attempt=1, shard=1)
        journal.fence(shard=1)
        clone = Journal.from_json(journal.to_json())
        assert [clone.epoch_of(s) for s in range(3)] == [1, 2, 0]
        assert [journal.epoch_of(s) for s in range(3)] == [1, 2, 0]
        assert clone.state.snapshot() == journal.state.snapshot()
        assert clone.state.shard_of == {C1: 0, C2: 1}
        assert clone.state.fenced_of(1) and not clone.state.fenced_of(0)

    def test_checkpoint_round_trip_preserves_shard_state(self):
        journal = make_journal()
        journal.coordinator_started(shard=1)
        journal.chunk_enqueued(C1, shard=1)
        journal.plan_chosen(C1, destination=2, sources=[3], attempt=1, shard=1)
        journal.checkpoint()
        clone = Journal.from_json(journal.to_json())
        state = clone.replay()
        assert state.epoch_of(1) == 1
        assert state.leases[C1].shard == 1
        assert state.shard_of == {C1: 1}


# -- hypothesis: serialisation survives arbitrary multi-shard churn ------------

CHUNKS = [ChunkId(i, i % 3) for i in range(6)]

_op = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 2)),
    st.tuples(st.just("fence"), st.integers(0, 2)),
    st.tuples(st.just("enqueue"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("plan"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("commit"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("fail"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("lost"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("tick"), st.integers(1, 50)),
    st.tuples(st.just("checkpoint")),
)


def _drive(journal: Journal, ops) -> None:
    for op in ops:
        kind = op[0]
        if kind == "start":
            journal.coordinator_started(shard=op[1])
        elif kind == "fence":
            journal.fence(shard=op[1])
        elif kind == "enqueue":
            journal.chunk_enqueued(CHUNKS[op[1]], shard=op[2])
        elif kind == "plan":
            journal.plan_chosen(
                CHUNKS[op[1]],
                destination=1,
                sources=[2, 3],
                attempt=1,
                shard=op[2],
            )
        elif kind == "commit":
            journal.writeback_committed(CHUNKS[op[1]], shard=op[2])
        elif kind == "fail":
            journal.attempt_failed(CHUNKS[op[1]], "churn", shard=op[2])
        elif kind == "lost":
            journal.chunk_lost(CHUNKS[op[1]], shard=op[2])
        elif kind == "tick":
            journal.sim.run(until=journal.sim.now + op[1] / 10.0)
        elif kind == "checkpoint":
            journal.checkpoint()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_round_trip_identity_under_multi_shard_churn(ops):
    """to_json -> from_json is the identity on the folded state, after
    any interleaving of multi-shard epochs, fences, lease churn and
    compacting checkpoints — and replay of the clone agrees too."""
    journal = make_journal(lease_duration=5.0)
    _drive(journal, ops)
    text = journal.to_json()
    clone = Journal.from_json(text)
    assert clone.state.snapshot() == journal.state.snapshot()
    assert clone.replay().snapshot() == journal.replay().snapshot()
    # Effective epochs agree on every shard (the dicts may differ in
    # explicit-zero entries, which epoch_of treats identically).
    assert all(clone.epoch_of(s) == journal.epoch_of(s) for s in range(3))
    assert clone.state.shard_of == journal.state.shard_of
    assert clone.compacted_records == journal.compacted_records
    # Serialising the clone reproduces the exact bytes (fixed point).
    assert clone.to_json() == text


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_checkpoint_is_transparent_to_the_folded_state(ops):
    """Compacting mid-churn never changes what replay reconstructs."""
    journal = make_journal(lease_duration=5.0)
    _drive(journal, ops)
    before = journal.state.snapshot()
    journal.checkpoint()
    assert journal.state.snapshot() == before
    assert journal.replay().snapshot() == before
    assert Journal.from_json(journal.to_json()).replay().snapshot() == before
