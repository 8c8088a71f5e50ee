"""Reconciling a replayed journal against data-plane ground truth.

Replay alone tells the recovering coordinator what the dead incarnation
*intended*; the :class:`~repro.cluster.datastore.ChunkStore` (when
integrity is enabled) tells it what actually *happened* to the bytes.
:func:`reconcile` folds the two into a :class:`RecoveryPlan`:

* a chunk the journal committed whose stored payload exists and passes
  its checksum is **completed** — it must never be repaired again;
* a committed chunk whose payload is missing or corrupt is **demoted**
  back into the work queue (the write-back did not survive);
* a pending or in-flight chunk whose stored payload verifies is
  **adopted** as completed (the write-back landed but the commit record
  did not — the crash fell into the write/commit window);
* every other pending chunk, plus every in-flight chunk whose lease is
  provably void (older epoch, fenced, or expired), is **requeued**;
* an in-flight chunk with a live lease of an unfenced epoch is
  **blocked** — the owner may still be running, so re-executing it could
  double-repair; the caller waits for expiry or fences first;
* **lost** chunks stay lost (the tolerance judgment still stands).

Requeue order follows journal order, so recovery is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.stripes import ChunkId
from repro.journal.records import JournalState


@dataclass
class RecoveryPlan:
    """What a recovering coordinator must (and must not) do."""

    #: Repaired for sure; never re-execute (exactly-once).
    completed: list[ChunkId] = field(default_factory=list)
    #: Needs repairing; safe to re-execute now.
    requeue: list[ChunkId] = field(default_factory=list)
    #: In flight under a live lease of an unfenced epoch; do not touch.
    blocked: list[ChunkId] = field(default_factory=list)
    #: Written off by the dead incarnation.
    lost: list[ChunkId] = field(default_factory=list)
    #: Journal said committed but the store disagreed (now in requeue).
    demoted: list[ChunkId] = field(default_factory=list)
    #: Store already held verified bytes for these (now in completed).
    adopted_from_store: list[ChunkId] = field(default_factory=list)
    #: Epoch of the plan's shard when the plan was derived.
    epoch: int = 0
    #: Shard the plan covers (an unsharded plane is shard 0).
    shard: int = 0

    def summary(self) -> dict[str, int]:
        """Counts for logs and trace instants."""
        return {
            "completed": len(self.completed),
            "requeue": len(self.requeue),
            "blocked": len(self.blocked),
            "lost": len(self.lost),
            "demoted": len(self.demoted),
            "adopted_from_store": len(self.adopted_from_store),
        }


def _store_has_verified(chunk_store, chunk: ChunkId) -> bool:
    return (
        chunk_store is not None
        and chunk_store.has(chunk)
        and chunk_store.verify(chunk)
    )


def reconcile(
    state: JournalState, *, now: float, chunk_store=None, shard: int = 0
) -> RecoveryPlan:
    """Fold one shard's journal intent and store ground truth into a plan.

    Only chunks last journaled by ``shard`` are classified, and the
    plan's epoch is that shard's. ``chunk_store=None`` (no integrity
    machinery) trusts the journal alone: committed stays committed,
    everything open is requeued or blocked purely on lease grounds.
    """

    def mine(chunk: ChunkId) -> bool:
        return state.shard_of.get(chunk, 0) == shard

    plan = RecoveryPlan(epoch=state.epoch_of(shard), shard=shard)
    for chunk in filter(mine, state.committed):
        if chunk_store is not None and not _store_has_verified(chunk_store, chunk):
            plan.demoted.append(chunk)
            plan.requeue.append(chunk)
        else:
            plan.completed.append(chunk)
    for chunk in filter(mine, state.pending):
        if _store_has_verified(chunk_store, chunk):
            plan.adopted_from_store.append(chunk)
            plan.completed.append(chunk)
        else:
            plan.requeue.append(chunk)
    for chunk in filter(mine, state.leases):
        if _store_has_verified(chunk_store, chunk):
            plan.adopted_from_store.append(chunk)
            plan.completed.append(chunk)
        elif state.reexecutable(chunk, now):
            plan.requeue.append(chunk)
        else:
            plan.blocked.append(chunk)
    plan.lost = list(filter(mine, state.lost))
    return plan
