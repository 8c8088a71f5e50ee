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
* **One write surface.** Coordinators write only through a
  :class:`JournalShard` — :meth:`Journal.shard_view` — which carries
  the per-kind write methods; an unsharded control plane is the
  one-shard plane on shard 0. :meth:`Journal.append` is the raw,
  unjudged record path underneath.
* **Epoch fencing + leases.** Each coordinator incarnation opens an
  epoch; every ``plan_chosen`` record carries a lease. Recovery first
  fences the dead epoch (a ``coordinator_crash`` record), which voids
  its leases; leases also lapse on their own after ``lease_duration``
  virtual seconds, covering the no-failure-detector case.
* **Zombie write rejection.** A coordinator that is isolated (not
  crashed) by a network partition keeps running; if its shard is
  fenced while it is away, its write-throughs must not land after the
  partition heals. :class:`JournalShard` captures its incarnation
  epoch at ``coordinator_started()`` and drops every later write whose
  epoch is older than the shard's issued epoch, or equal but fenced,
  counting them in :attr:`Journal.fenced_writes`
  (``journal.fenced_writes`` counter).
* **Full-log replay.** The log is never compacted: recovery folds
  every record from the first, which is what the experiments measure.
"""

from __future__ import annotations

from repro.cluster.stripes import ChunkId
from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.journal.records import (
    ATTEMPT_FAILED,
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

    def __init__(self, sim=None, *, lease_duration: float = 60.0) -> None:
        if lease_duration <= 0:
            raise SimulationError("lease_duration must be positive")
        self.sim = sim
        self.lease_duration = lease_duration
        self.records: list[JournalRecord] = []
        #: Live fold of the record sequence (what replay would rebuild);
        #: it owns every shard's epoch and fence.
        self.state = JournalState()
        #: Write-throughs rejected because their incarnation epoch was
        #: stale or fenced (a zombie coordinator wrote after heal).
        self.fenced_writes = 0

    def epoch_of(self, shard: int) -> int:
        """The newest epoch issued on ``shard`` (0 = never started)."""
        return self.state.epoch_of(shard)

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def append(
        self, kind: str, chunk: ChunkId | None = None, *, shard: int = 0, **payload
    ) -> JournalRecord:
        """Append one record and fold it into the state."""
        record = JournalRecord(
            seq=len(self.records),
            at=self._now(),
            kind=kind,
            chunk=chunk,
            payload=payload,
            shard=shard,
        )
        self.records.append(record)
        self.state.apply(record)
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.appends").inc()
            registry.counter(f"journal.records.{kind}").inc()
        return record

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

    def shard_view(self, shard: int) -> "JournalShard":
        """The write surface of one partition of this log.

        Handing ``shard_view(s)`` to a repairer makes every record it
        writes land on shard ``s`` without the repairer knowing shards
        exist.
        """
        return JournalShard(self, shard)

    def replay(self) -> JournalState:
        """Rebuild the state by folding the full record sequence.

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

    def __len__(self) -> int:
        return len(self.records)


class JournalShard:
    """One partition of a :class:`Journal`, as its coordinator writes it.

    The only write surface of the journal: every per-kind method stamps
    the view's shard id on its record. All shards append to the one
    shared log; only the epoch/fence/lease bookkeeping is partitioned.

    The view captures its *incarnation epoch* when the repairer calls
    :meth:`coordinator_started`; :meth:`_write` drops every later write
    once that incarnation is fenced or superseded, so a zombie
    coordinator (isolated by a partition, fenced while away) cannot
    corrupt the log after the partition heals.
    """

    __slots__ = ("journal", "shard", "incarnation")

    def __init__(self, journal: Journal, shard: int) -> None:
        if shard < 0:
            raise SimulationError("shard id must be >= 0")
        self.journal = journal
        self.shard = shard
        #: Epoch this view's coordinator opened (None until started;
        #: a view that never starts is never judged stale).
        self.incarnation: int | None = None

    def coordinator_started(self) -> int:
        """Open a new epoch on this shard; voids its older leases."""
        self.incarnation = self.journal.epoch_of(self.shard) + 1
        self.journal.append(
            COORDINATOR_START, shard=self.shard, epoch=self.incarnation
        )
        return self.incarnation

    def _write(self, kind: str, chunk: ChunkId, **payload) -> None:
        """Append unless this view's incarnation is stale or fenced.

        A write is stale when a newer incarnation already opened the
        shard, or the writer's own epoch was fenced — either way the
        writer is a zombie and its scheduling decisions must not reach
        the durable log.
        """
        journal, shard, epoch = self.journal, self.shard, self.incarnation
        current = journal.epoch_of(shard)
        if epoch is None or (
            epoch == current and not journal.state.fenced_of(shard)
        ):
            journal.append(kind, chunk, shard=shard, **payload)
            return
        journal.fenced_writes += 1
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

    def chunk_enqueued(self, chunk: ChunkId) -> None:
        self._write(ENQUEUED, chunk)

    def plan_chosen(
        self, chunk: ChunkId, *, destination: int, sources: list[int], attempt: int
    ) -> None:
        self._write(
            PLAN_CHOSEN,
            chunk,
            destination=destination,
            sources=list(sources),
            attempt=attempt,
            lease_expires=self.journal._now() + self.journal.lease_duration,
        )

    def reads_issued(self, chunk: ChunkId, *, transfers: int) -> None:
        self._write(READS_ISSUED, chunk, transfers=transfers)

    def attempt_failed(self, chunk: ChunkId, reason: str) -> None:
        self._write(ATTEMPT_FAILED, chunk, reason=reason)

    def decode_verified(self, chunk: ChunkId) -> None:
        self._write(DECODE_VERIFIED, chunk)

    def writeback_committed(self, chunk: ChunkId) -> None:
        self._write(COMMITTED, chunk)

    def chunk_lost(self, chunk: ChunkId) -> None:
        self._write(LOST, chunk)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JournalShard(shard={self.shard}, journal={self.journal!r})"


def audit_fenced_writes(journal: Journal) -> list[JournalRecord]:
    """Chunk records that landed while their shard was fenced.

    Replays the log through a fresh :class:`JournalState` and flags
    every chunk-carrying record appended between a shard's
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
