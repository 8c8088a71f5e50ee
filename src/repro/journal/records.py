"""Record kinds, leases and the replayable state of the repair journal.

The journal is an append-only sequence of :class:`JournalRecord`\\ s;
:class:`JournalState` is the deterministic fold over that sequence. The
two are kept in lock-step by :class:`repro.journal.wal.Journal` (every
append is applied immediately), and recovery rebuilds the same state by
replaying the records — the core exactly-once argument is that *both
paths run the identical transition function* (:meth:`JournalState.apply`).

Chunk ownership is lease-based: a ``plan_chosen`` record grants the
writing coordinator epoch a time-bounded lease on the chunk. A
recovering coordinator may re-execute an in-flight chunk only when its
lease is provably void — the owning epoch is older than the current one,
the epoch was fenced by a ``coordinator_crash`` record, or the lease
expired on the virtual clock (see :meth:`JournalState.reexecutable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.stripes import ChunkId

# -- record kinds ---------------------------------------------------------------

#: A coordinator incarnation opened ``payload["epoch"]``.
COORDINATOR_START = "coordinator_start"
#: The current incarnation was declared dead (fences all its leases).
COORDINATOR_CRASH = "coordinator_crash"
#: ``chunk`` entered the work queue (initial batch, crash adoption,
#: or an integrity-reject requeue; re-opens a committed chunk).
ENQUEUED = "chunk_enqueued"
#: A plan was chosen for ``chunk``; grants a lease until
#: ``payload["lease_expires"]``.
PLAN_CHOSEN = "plan_chosen"
#: The chunk's helper-read transfers were released into the simulator.
READS_ISSUED = "reads_issued"
#: The in-flight attempt failed (``payload["reason"]``); lease released.
ATTEMPT_FAILED = "attempt_failed"
#: The decoded payload passed checksum verification.
DECODE_VERIFIED = "decode_verified"
#: The reconstruction was written back; the chunk is repaired.
COMMITTED = "writeback_committed"
#: The chunk was written off (tolerance exceeded / retries exhausted).
LOST = "chunk_lost"

RECORD_KINDS = (
    COORDINATOR_START,
    COORDINATOR_CRASH,
    ENQUEUED,
    PLAN_CHOSEN,
    READS_ISSUED,
    ATTEMPT_FAILED,
    DECODE_VERIFIED,
    COMMITTED,
    LOST,
)


@dataclass(frozen=True)
class Lease:
    """Time-bounded ownership of one in-flight chunk repair.

    The lease is held over the half-open interval
    ``[acquired_at, expires_at)``: at exactly ``now == expires_at`` the
    lease has already lapsed and the chunk is re-executable. The
    half-open convention keeps recovery conservative-but-live — a
    recovering coordinator scheduled at precisely the expiry instant
    never deadlocks waiting one more tick for a dead owner.
    """

    chunk: ChunkId
    epoch: int
    acquired_at: float
    expires_at: float
    #: Journal partition that granted the lease (an unsharded plane is
    #: the one-shard plane, shard 0).
    shard: int = 0

    def expired(self, now: float) -> bool:
        """True once ``now`` reached ``expires_at`` (half-open hold)."""
        return now >= self.expires_at


@dataclass(frozen=True)
class JournalRecord:
    """One append-only journal entry, stamped with virtual time.

    ``shard`` names the journal partition the record belongs to. All
    partitions share one append-only log (and one ``seq`` space); the
    shard id keys the per-partition epoch/fence/lease bookkeeping. A
    single-coordinator log is a one-shard log: its records carry
    shard 0.
    """

    seq: int
    at: float
    kind: str
    chunk: ChunkId | None = None
    payload: dict = field(default_factory=dict)
    shard: int = 0


class JournalState:
    """The fold of a record sequence: who owns what, what is done.

    The four chunk collections are insertion-ordered (plain dicts used
    as ordered sets), so replay reproduces the coordinator's work order
    deterministically. ``leases`` maps every in-flight chunk to its
    current :class:`Lease`.

    Epochs and fences are kept *per shard* (``_epochs`` / ``_fenced``
    keyed by shard id); this fold is the only owner of both, and
    :class:`~repro.journal.wal.Journal` reads its issued epochs from
    here. ``shard_of`` tracks the partition that last journaled each
    chunk, which is what lets :func:`reconcile` carve a per-shard
    recovery plan out of the shared log.
    """

    def __init__(self) -> None:
        self._epochs: dict[int, int] = {}
        self._fenced: dict[int, bool] = {}  # epoch declared dead, per shard
        self.pending: dict[ChunkId, int] = {}
        self.leases: dict[ChunkId, Lease] = {}
        self.committed: dict[ChunkId, int] = {}
        self.lost: dict[ChunkId, int] = {}
        self.shard_of: dict[ChunkId, int] = {}

    # -- per-shard epoch surface ----------------------------------------------

    def epoch_of(self, shard: int) -> int:
        return self._epochs.get(shard, 0)

    def fenced_of(self, shard: int) -> bool:
        return self._fenced.get(shard, False)

    # -- transitions ----------------------------------------------------------

    def apply(self, record: JournalRecord) -> None:
        """Advance the state by one record (replay == live bookkeeping)."""
        kind, chunk, seq, shard = (
            record.kind,
            record.chunk,
            record.seq,
            record.shard,
        )
        if chunk is not None:
            self.shard_of[chunk] = shard
        if kind == COORDINATOR_START:
            self._epochs[shard] = record.payload["epoch"]
            self._fenced[shard] = False
        elif kind == COORDINATOR_CRASH:
            self._fenced[shard] = True
        elif kind == ENQUEUED:
            self.committed.pop(chunk, None)
            self.lost.pop(chunk, None)
            self.leases.pop(chunk, None)
            self.pending[chunk] = seq
        elif kind == PLAN_CHOSEN:
            self.pending.pop(chunk, None)
            self.leases[chunk] = Lease(
                chunk=chunk,
                epoch=self.epoch_of(shard),
                acquired_at=record.at,
                expires_at=record.payload["lease_expires"],
                shard=shard,
            )
        elif kind == ATTEMPT_FAILED:
            self.leases.pop(chunk, None)
            self.pending[chunk] = seq
        elif kind == COMMITTED:
            self.pending.pop(chunk, None)
            self.leases.pop(chunk, None)
            self.committed[chunk] = seq
        elif kind == LOST:
            self.pending.pop(chunk, None)
            self.leases.pop(chunk, None)
            self.committed.pop(chunk, None)
            self.lost[chunk] = seq
        elif kind in (READS_ISSUED, DECODE_VERIFIED):
            pass  # markers: no ownership transition
        else:
            raise ValueError(f"unknown journal record kind {kind!r}")

    # -- lease queries --------------------------------------------------------

    def reexecutable(self, chunk: ChunkId, now: float) -> bool:
        """May a recovering coordinator safely re-execute ``chunk``?

        True for chunks with no lease, and for leased chunks whose lease
        is void: granted by an older epoch, fenced by a crash record, or
        expired on the virtual clock. A live lease of an unfenced current
        epoch means the owner may still be running — re-executing could
        double-repair.
        """
        lease = self.leases.get(chunk)
        if lease is None:
            return True
        return (
            lease.epoch < self.epoch_of(lease.shard)
            or self.fenced_of(lease.shard)
            or lease.expired(now)
        )

    def open_work(self, shard: int | None = None) -> list[ChunkId]:
        """Chunks neither committed nor lost, in journal order.

        ``shard`` narrows the view to one partition's chunks; ``None``
        spans every partition.
        """
        chunks = list(self.pending) + list(self.leases)
        if shard is None:
            return chunks
        return [c for c in chunks if self.shard_of.get(c, 0) == shard]
