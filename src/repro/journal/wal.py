"""The write-ahead journal of the repair control plane.

:class:`Journal` makes the coordinator's in-memory scheduling state —
batches, in-flight plans, retry outcomes, losses — durable against a
*control-plane* crash: :class:`repro.repair.runner.RepairRunner` and
:class:`repro.core.chameleon.ChameleonRepair` write through it at every
state transition, so a recovering coordinator can replay the log and
resume with exactly-once semantics (see :mod:`repro.journal.recovery`).

Design notes:

* **Virtual-time WAL.** Records are stamped with the simulator clock;
  appending consumes no virtual time (a real deployment would batch
  fsyncs — the simulated repair timeline is the journal-off timeline).
* **Epoch fencing + leases.** Each coordinator incarnation opens an
  epoch; every ``plan_chosen`` record carries a lease. Recovery first
  fences the dead epoch (a ``coordinator_crash`` record), which voids
  its leases; leases also lapse on their own after ``lease_duration``
  virtual seconds, covering the no-failure-detector case.
* **Zombie write rejection.** A coordinator that is isolated (not
  crashed) by a network partition keeps running; if its shard is
  fenced while it is away, its write-throughs must not land after the
  partition heals. :class:`JournalShard` captures its incarnation
  epoch at ``coordinator_started()`` and stamps every subsequent
  write; the journal drops writes whose epoch is older than the
  shard's issued epoch, or equal but fenced, counting them in
  :attr:`Journal.fenced_writes` (``journal.fenced_writes`` counter).
  Every coordinator writes through a shard view — an unsharded control
  plane is the one-shard plane on shard 0. Raw :class:`Journal` writes
  carry no epoch and are never rejected.
* **Compacting checkpoints.** ``checkpoint()`` snapshots the folded
  state and drops every earlier record, bounding replay work; with
  ``checkpoint_interval`` set the journal checkpoints itself every N
  appends.
* **Durability escape hatch.** ``to_json()``/``from_json()`` round-trip
  the full log (or its compacted tail), standing in for the on-disk /
  replicated store a production coordinator would use.
"""

from __future__ import annotations

import json

from repro.cluster.stripes import ChunkId
from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.journal.records import (
    ATTEMPT_FAILED,
    CHECKPOINT,
    COMMITTED,
    COORDINATOR_CRASH,
    COORDINATOR_START,
    DECODE_VERIFIED,
    ENQUEUED,
    LOST,
    PLAN_CHOSEN,
    READS_ISSUED,
    JournalRecord,
    JournalState,
)


class Journal:
    """Append-only, replayable log of repair control-plane transitions."""

    def __init__(
        self,
        sim=None,
        *,
        lease_duration: float = 60.0,
        checkpoint_interval: int | None = None,
    ) -> None:
        if lease_duration <= 0:
            raise SimulationError("lease_duration must be positive")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise SimulationError("checkpoint_interval must be >= 1 (or None)")
        self.sim = sim
        self.lease_duration = lease_duration
        self.checkpoint_interval = checkpoint_interval
        self.records: list[JournalRecord] = []
        #: Live fold of the record sequence (what replay would rebuild);
        #: it owns every shard's epoch and fence.
        self.state = JournalState()
        #: Records dropped by compaction (they live on inside the last
        #: checkpoint's snapshot).
        self.compacted_records = 0
        #: Write-throughs rejected because their incarnation epoch was
        #: stale or fenced (a zombie coordinator wrote after heal).
        self.fenced_writes = 0
        self._seq = 0
        self._since_checkpoint = 0

    def epoch_of(self, shard: int) -> int:
        """The newest epoch issued on ``shard`` (0 = never started)."""
        return self.state.epoch_of(shard)

    # -- clock ----------------------------------------------------------------

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # -- zombie fencing -------------------------------------------------------

    def _reject_stale(self, kind: str, shard: int, epoch: int | None) -> bool:
        """True when a write from a fenced/stale incarnation must drop.

        ``epoch`` is the writer's captured incarnation epoch (None =
        epoch-unaware caller, never rejected). A write is stale when a
        newer incarnation already opened the shard, or the writer's own
        epoch was fenced — either way the writer is a zombie and its
        scheduling decisions must not reach the durable log.
        """
        if epoch is None:
            return False
        current = self.epoch_of(shard)
        if epoch > current or (epoch == current and not self.state.fenced_of(shard)):
            return False
        self.fenced_writes += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.fenced_writes").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "journal.fenced_write",
                track="journal",
                kind=kind,
                shard=shard,
                epoch=epoch,
                current=current,
            )
        return True

    # -- the append path ------------------------------------------------------

    def append(
        self, kind: str, chunk: ChunkId | None = None, *, shard: int = 0, **payload
    ) -> JournalRecord:
        """Append one record, fold it into the state, maybe checkpoint."""
        record = JournalRecord(
            seq=self._seq,
            at=self._now(),
            kind=kind,
            chunk=chunk,
            payload=payload,
            shard=shard,
        )
        self._seq += 1
        self.records.append(record)
        self.state.apply(record)
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.appends").inc()
            registry.counter(f"journal.records.{kind}").inc()
        if kind != CHECKPOINT:
            self._since_checkpoint += 1
            if (
                self.checkpoint_interval is not None
                and self._since_checkpoint >= self.checkpoint_interval
            ):
                self.checkpoint()
        return record

    # -- write-through API (called by the repairers) ---------------------------

    def coordinator_started(self, *, shard: int = 0) -> int:
        """Open a new coordinator epoch on ``shard``; voids its older leases."""
        epoch = self.epoch_of(shard) + 1
        self.append(COORDINATOR_START, shard=shard, epoch=epoch)
        return epoch

    def fence(self, *, shard: int = 0) -> None:
        """Record one shard's incarnation death (voids its leases).

        Written by whoever *observes* the crash — the fault timeline's
        handler or a recovering coordinator — never by the dead process.
        Idempotent per epoch. Sibling shards' epochs and leases are
        untouched: fencing is the blast-radius boundary.
        """
        if self.state.fenced_of(shard):
            return
        self.append(COORDINATOR_CRASH, shard=shard, epoch=self.epoch_of(shard))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "journal.fence",
                track="journal",
                epoch=self.epoch_of(shard),
                shard=shard,
            )

    def chunk_enqueued(
        self, chunk: ChunkId, *, shard: int = 0, epoch: int | None = None
    ) -> None:
        if self._reject_stale(ENQUEUED, shard, epoch):
            return
        self.append(ENQUEUED, chunk, shard=shard)

    def plan_chosen(
        self,
        chunk: ChunkId,
        *,
        destination: int,
        sources: list[int],
        attempt: int,
        shard: int = 0,
        epoch: int | None = None,
    ) -> None:
        if self._reject_stale(PLAN_CHOSEN, shard, epoch):
            return
        self.append(
            PLAN_CHOSEN,
            chunk,
            shard=shard,
            destination=destination,
            sources=list(sources),
            attempt=attempt,
            lease_expires=self._now() + self.lease_duration,
        )

    def reads_issued(
        self, chunk: ChunkId, *, transfers: int, shard: int = 0,
        epoch: int | None = None,
    ) -> None:
        if self._reject_stale(READS_ISSUED, shard, epoch):
            return
        self.append(READS_ISSUED, chunk, shard=shard, transfers=transfers)

    def attempt_failed(
        self, chunk: ChunkId, reason: str, *, shard: int = 0,
        epoch: int | None = None,
    ) -> None:
        if self._reject_stale(ATTEMPT_FAILED, shard, epoch):
            return
        self.append(ATTEMPT_FAILED, chunk, shard=shard, reason=reason)

    def decode_verified(
        self, chunk: ChunkId, *, shard: int = 0, epoch: int | None = None
    ) -> None:
        if self._reject_stale(DECODE_VERIFIED, shard, epoch):
            return
        self.append(DECODE_VERIFIED, chunk, shard=shard)

    def writeback_committed(
        self, chunk: ChunkId, *, shard: int = 0, epoch: int | None = None
    ) -> None:
        if self._reject_stale(COMMITTED, shard, epoch):
            return
        self.append(COMMITTED, chunk, shard=shard)

    def chunk_lost(
        self, chunk: ChunkId, *, shard: int = 0, epoch: int | None = None
    ) -> None:
        if self._reject_stale(LOST, shard, epoch):
            return
        self.append(LOST, chunk, shard=shard)

    # -- shard views -----------------------------------------------------------

    def shard_view(self, shard: int) -> "JournalShard":
        """A write-through view bound to one partition of this log.

        Handing ``shard_view(s)`` to a repairer makes every record it
        writes land on shard ``s`` without the repairer knowing shards
        exist — the proxy pre-binds the shard id on the full
        write-through surface.
        """
        return JournalShard(self, shard)

    # -- checkpoints & compaction ----------------------------------------------

    def checkpoint(self) -> JournalRecord:
        """Snapshot the folded state and drop every earlier record."""
        record = self.append(CHECKPOINT, state=self.state.snapshot())
        dropped = len(self.records) - 1
        self.records = [record]
        self.compacted_records += dropped
        self._since_checkpoint = 0
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.checkpoints").inc()
            registry.counter("journal.records_compacted").inc(dropped)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "journal.checkpoint",
                track="journal",
                compacted=dropped,
                live=len(self.records),
            )
        return record

    # -- recovery -------------------------------------------------------------

    def replay(self) -> JournalState:
        """Rebuild the state by folding the (compacted) record sequence.

        This is exactly what a freshly started coordinator reading the
        durable log would compute; the result is independent of the live
        :attr:`state` object (a unit-testable determinism invariant).
        """
        state = JournalState()
        for record in self.records:
            state.apply(record)
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.recovery.replays").inc()
            registry.counter("journal.recovery.replayed_records").inc(
                len(self.records)
            )
        return state

    # -- durability round-trip -------------------------------------------------

    def to_json(self) -> str:
        """Serialise the journal (records + cursor) to JSON.

        Epochs are not written separately: replaying the records
        rebuilds them, as it rebuilds the rest of the state.
        """
        return json.dumps(
            {
                "lease_duration": self.lease_duration,
                "checkpoint_interval": self.checkpoint_interval,
                "seq": self._seq,
                "compacted_records": self.compacted_records,
                "records": [r.to_dict() for r in self.records],
            }
        )

    @classmethod
    def from_json(cls, text: str, sim=None) -> "Journal":
        """Rebuild a journal (and its folded state) from :meth:`to_json`."""
        data = json.loads(text)
        journal = cls(
            sim,
            lease_duration=data["lease_duration"],
            checkpoint_interval=data["checkpoint_interval"],
        )
        journal._seq = data["seq"]
        journal.compacted_records = data["compacted_records"]
        journal.records = [JournalRecord.from_dict(r) for r in data["records"]]
        for record in journal.records:
            journal.state.apply(record)
        return journal

    def __len__(self) -> int:
        """Records currently held (post-compaction)."""
        return len(self.records)


class JournalShard:
    """One partition of a :class:`Journal`, as seen by its coordinator.

    Exposes the journal's write-through surface with the shard id
    pre-bound, so a repairer built against the unsharded `Journal` API
    works against a partition unmodified. All shards append to the one
    shared log; only the epoch/fence/lease bookkeeping is partitioned.

    The view also captures its *incarnation epoch* when the repairer
    calls :meth:`coordinator_started`, stamping every later write with
    it — the journal rejects writes from fenced/stale incarnations, so
    a zombie coordinator (isolated by a partition, fenced while away)
    cannot corrupt the log after the partition heals.
    """

    __slots__ = ("journal", "shard", "incarnation")

    def __init__(self, journal: Journal, shard: int) -> None:
        if shard < 0:
            raise SimulationError("shard id must be >= 0")
        self.journal = journal
        self.shard = shard
        #: Epoch this view's coordinator opened (None until started;
        #: None-epoch writes bypass the zombie check, preserving the
        #: pre-partition surface for views that never start).
        self.incarnation: int | None = None

    # The repairers read these for bookkeeping / invariant checks.

    @property
    def state(self) -> JournalState:
        return self.journal.state

    @property
    def epoch(self) -> int:
        return self.journal.epoch_of(self.shard)

    @property
    def lease_duration(self) -> float:
        return self.journal.lease_duration

    # Write-through surface, shard pre-bound.

    def coordinator_started(self) -> int:
        self.incarnation = self.journal.coordinator_started(shard=self.shard)
        return self.incarnation

    def fence(self) -> None:
        self.journal.fence(shard=self.shard)

    def chunk_enqueued(self, chunk: ChunkId) -> None:
        self.journal.chunk_enqueued(
            chunk, shard=self.shard, epoch=self.incarnation
        )

    def plan_chosen(
        self, chunk: ChunkId, *, destination: int, sources: list[int], attempt: int
    ) -> None:
        self.journal.plan_chosen(
            chunk,
            destination=destination,
            sources=sources,
            attempt=attempt,
            shard=self.shard,
            epoch=self.incarnation,
        )

    def reads_issued(self, chunk: ChunkId, *, transfers: int) -> None:
        self.journal.reads_issued(
            chunk, transfers=transfers, shard=self.shard, epoch=self.incarnation
        )

    def attempt_failed(self, chunk: ChunkId, reason: str) -> None:
        self.journal.attempt_failed(
            chunk, reason, shard=self.shard, epoch=self.incarnation
        )

    def decode_verified(self, chunk: ChunkId) -> None:
        self.journal.decode_verified(
            chunk, shard=self.shard, epoch=self.incarnation
        )

    def writeback_committed(self, chunk: ChunkId) -> None:
        self.journal.writeback_committed(
            chunk, shard=self.shard, epoch=self.incarnation
        )

    def chunk_lost(self, chunk: ChunkId) -> None:
        self.journal.chunk_lost(
            chunk, shard=self.shard, epoch=self.incarnation
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JournalShard(shard={self.shard}, journal={self.journal!r})"


def audit_fenced_writes(journal: Journal) -> list[JournalRecord]:
    """Chunk records that landed while their shard was fenced.

    Replays the (compacted) log through a fresh :class:`JournalState`
    and flags every chunk-carrying record appended between a shard's
    ``coordinator_crash`` and its next ``coordinator_start`` — exactly
    the window in which only a zombie could have written. With zombie
    rejection working, the result is always empty; experiments assert
    that as the "zero accepted stale writes" invariant.
    """
    state = JournalState()
    violations: list[JournalRecord] = []
    for record in journal.records:
        if record.chunk is not None and state.fenced_of(record.shard):
            violations.append(record)
        state.apply(record)
    return violations
