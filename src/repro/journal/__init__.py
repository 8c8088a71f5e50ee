"""Durable repair control plane (``repro.journal``).

ChameleonEC's scheduler (Section III, Algorithm 1) is a centralized
coordinator; until this subsystem existed, all of its progress — batches,
in-flight plans, retry counters — lived in coordinator memory, so a
control-plane crash silently lost or double-executed repairs. The
journal fixes that:

* :class:`Journal` — a virtual-time write-ahead log the repair drivers
  write through at every state transition, with epoch fencing and
  lease-based chunk ownership. The log is partitioned into *shards*
  (per-shard epoch counters, fences and leases in one shared record
  sequence) so N coordinators can run concurrently;
  :meth:`Journal.shard_view` hands each coordinator a
  :class:`JournalShard`, the journal's only write surface, bound to
  its own partition. Recovery replays the full log;
* :class:`JournalState` / :class:`JournalRecord` / :class:`Lease` — the
  replayable fold of the record sequence;
* :func:`reconcile` / :class:`RecoveryPlan` — one shard's replay
  reconciled against :class:`~repro.cluster.datastore.ChunkStore`
  ground truth, deciding per chunk: completed (never re-execute),
  requeue, blocked (live lease), or lost.

Crash injection (:class:`repro.faults.CoordinatorCrash`) and the
recovery entry point (:meth:`repro.api.Testbed.recover_repairer`) live
with their subsystems; see README "Crash recovery & failover".
"""

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
    RECORD_KINDS,
    JournalRecord,
    JournalState,
    Lease,
)
from repro.journal.recovery import RecoveryPlan, reconcile
from repro.journal.wal import Journal, JournalShard, audit_fenced_writes

__all__ = [
    "ATTEMPT_FAILED",
    "COMMITTED",
    "COORDINATOR_CRASH",
    "COORDINATOR_START",
    "DECODE_VERIFIED",
    "ENQUEUED",
    "LOST",
    "PLAN_CHOSEN",
    "READS_ISSUED",
    "RECORD_KINDS",
    "Journal",
    "JournalRecord",
    "JournalShard",
    "JournalState",
    "Lease",
    "RecoveryPlan",
    "audit_fenced_writes",
    "reconcile",
]
