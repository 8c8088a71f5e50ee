"""Materialises a :class:`RepairPlan` as simulator transfers.

Each plan edge (uploader -> downloader) becomes one sliced transfer whose
resources are the uploader's disk-read + uplink and the downloader's
downlink; a final disk-write transfer at the destination persists the
decoded chunk. Slice-wise dependencies reproduce pipelined combining: a
relay can forward slice ``j`` of its partial result only after receiving
slice ``j`` from each input.

The instance also implements the two straggler reactions (Section III-C):
``pause``/``resume`` for transmission re-ordering and :meth:`retune` for
repair re-tuning (redirecting a delayed source download to the
destination).
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.topology import Cluster
from repro.errors import PlanError
from repro.sim.resources import REPAIR_TAG
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.repair.plan import RepairPlan
from repro.sim.transfers import Transfer


class PlanInstance:
    """One in-flight chunk repair."""

    def __init__(
        self,
        cluster: Cluster,
        plan: RepairPlan,
        *,
        chunk_size: float,
        slice_size: float,
        tag: str = REPAIR_TAG,
        final_write: bool = True,
        on_complete: Callable[["PlanInstance"], None] | None = None,
        on_failed: Callable[["PlanInstance", str], None] | None = None,
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        self.chunk_size = chunk_size
        self.slice_size = slice_size
        self.tag = tag
        self.on_complete = on_complete
        self.on_failed = on_failed
        self.started = False
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.cancelled = False
        self.failed = False
        self.failure_reason: str | None = None
        #: uploader node id -> its upload transfer (the live plan edges).
        self.uploads: dict[int, Transfer] = {}
        self.write: Transfer | None = None
        self._obs_span = None
        self._build(final_write)

    # -- construction ---------------------------------------------------------

    def _edge_size(self) -> float:
        return self.chunk_size * self.plan.read_fraction

    def _make_edge(
        self, uploader: int, downloader: int, size: float | None = None
    ) -> Transfer:
        transfer = self.cluster.make_transfer(
            uploader,
            downloader,
            size if size is not None else self._edge_size(),
            self.slice_size,
            tag=self.tag,
            read_disk=True,  # the uploader streams its local chunk from disk
            write_disk=False,
            name=f"rep-{self.plan.chunk}-{uploader}->{downloader}",
        )
        transfer.on_failed.append(self._transfer_failed)
        return transfer

    def _build(self, final_write: bool) -> None:
        for uploader, downloader in self.plan.edges():
            self.uploads[uploader] = self._make_edge(uploader, downloader)
        # Relay pipelining: an upload from x waits slice-wise on every
        # upload arriving at x.
        for uploader, downloader in self.plan.edges():
            if downloader != self.plan.destination:
                self.uploads[downloader].depends_on(self.uploads[uploader])
        if final_write:
            dest_node = self.cluster.node(self.plan.destination)
            self.write = Transfer(
                f"rep-{self.plan.chunk}-write",
                (dest_node.disk_write,),
                self.chunk_size,
                self.slice_size,
                tag=self.tag,
            )
            for child in self.plan.children(self.plan.destination):
                self.write.depends_on(self.uploads[child])
            self.write.on_complete.append(lambda _t: self._finished())
            self.write.on_failed.append(self._transfer_failed)
        else:
            self._watch_incoming()

    def _watch_incoming(self) -> None:
        """Without a final write, completion = all dest-incoming edges done."""
        for child in self.plan.children(self.plan.destination):
            self.uploads[child].on_complete.append(self._check_incoming)

    def _check_incoming(self, _t: Transfer) -> None:
        incoming = [
            self.uploads[c] for c in self.plan.children(self.plan.destination)
        ]
        if incoming and all(t.done for t in incoming):
            self._finished()

    # -- lifecycle -------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the repaired chunk is fully assembled."""
        return self.completed_at is not None

    def start(self) -> None:
        """Release all transfers (slices flow as dependencies permit)."""
        if self.started:
            return
        self.started = True
        self.started_at = self.cluster.sim.now
        tracer = get_tracer()
        if tracer.enabled:
            self._obs_span = tracer.span(
                "repair.task",
                track="repair",
                chunk=str(self.plan.chunk),
                destination=self.plan.destination,
                sources=len(self.plan.sources),
            )
        for transfer in self.uploads.values():
            self.cluster.transfers.start(transfer)
        if self.write is not None:
            self.cluster.transfers.start(self.write)

    def cancel(self) -> None:
        """Abort the repair; completion callbacks never fire."""
        self.cancelled = True
        if self._obs_span is not None:
            self._obs_span.finish(status="cancelled")
            self._obs_span = None
        for transfer in self.uploads.values():
            if not transfer.done:
                self.cluster.transfers.cancel(transfer)
        if self.write is not None and not self.write.done:
            self.cluster.transfers.cancel(self.write)

    def uses_node(self, node_id: int) -> bool:
        """True when ``node_id`` participates in this repair's plan."""
        return (
            node_id == self.plan.destination
            or node_id in self.plan.parent
            or node_id in self.plan.parent.values()
        )

    def _transfer_failed(self, transfer: Transfer, reason: str) -> None:
        """One constituent transfer failed: the whole chunk repair fails.

        A repair cannot complete with a missing input (a cancelled
        dependency stops gating its dependents, so letting the rest run
        would silently assemble a corrupt chunk). Tear everything down and
        notify the owner exactly once; the runner/coordinator then retries
        with a fresh plan.
        """
        self.fail(reason)

    def fail(self, reason: str) -> None:
        """Fail the whole repair (fault injection or watchdog timeout)."""
        if self.done or self.cancelled or self.failed:
            return
        self.failed = True
        self.failure_reason = reason
        if self._obs_span is not None:
            self._obs_span.finish(status="failed", reason=reason)
            self._obs_span = None
        self.cancel()
        registry = get_registry()
        if registry.enabled:
            registry.counter("repairs.failed").inc()
        if self.on_failed is not None:
            self.on_failed(self, reason)

    def _finished(self) -> None:
        if self.done or self.cancelled:
            return
        self.completed_at = self.cluster.sim.now
        if self._obs_span is not None:
            self._obs_span.finish()
            self._obs_span = None
        registry = get_registry()
        if registry.enabled:
            registry.counter("repairs.completed").inc()
            if self.started_at is not None:
                registry.histogram("repair.duration_s").observe(
                    self.completed_at - self.started_at
                )
        if self.on_complete is not None:
            self.on_complete(self)

    # -- straggler reactions ----------------------------------------------------

    def pause_downstream(self, transfer: Transfer) -> list[Transfer]:
        """Postpone only the tasks waiting (transitively) on ``transfer``.

        These cooperating tasks cannot make progress past the straggler
        anyway; parking them releases their links to other chunks'
        repairs (the re-ordering of Section III-C). Returns the paused
        transfers so the coordinator can resume them later.
        """
        uploader = next(
            (n for n, t in self.uploads.items() if t is transfer), None
        )
        if uploader is None:
            return []
        paused = []
        node = self.plan.parent.get(uploader)
        while node is not None and node != self.plan.destination:
            downstream = self.uploads.get(node)
            if downstream is not None and not downstream.done:
                self.cluster.transfers.pause(downstream)
                paused.append(downstream)
            node = self.plan.parent.get(node)
        return paused

    def resume(self) -> None:
        """Continue transfers postponed by :meth:`pause_downstream`."""
        for transfer in self.uploads.values():
            if not transfer.done:
                self.cluster.transfers.resume(transfer)

    def live_transfers(self) -> list[Transfer]:
        """All unfinished, uncancelled transfers of this repair."""
        out = [t for t in self.uploads.values() if not t.done and not t.cancelled]
        if self.write is not None and not self.write.done:
            out.append(self.write)
        return out

    def downloader_of(self, transfer: Transfer) -> int | None:
        """Which node downloads ``transfer`` (None for the final write)."""
        for uploader, t in self.uploads.items():
            if t is transfer:
                return self.plan.parent[uploader]
        return None

    def retune(self, transfer: Transfer) -> Transfer:
        """Repair re-tuning: redirect a delayed source download.

        ``transfer`` must be an edge (w -> x) where x is a *relay* (not
        the destination). The edge is torn down and w uploads the
        *remaining* bytes directly to the destination: slices already
        delivered to x are folded into x's combine-upload, slices still
        pending flow to the destination instead, and the destination XORs
        everything — the linearity and addition associativity of erasure
        coding (Eq. 1) keep the decode exact. Crucially, x's dependent
        upload no longer waits for w (Fig. 10(b)).
        """
        uploader = None
        for node_id, t in self.uploads.items():
            if t is transfer:
                uploader = node_id
                break
        if uploader is None:
            raise PlanError("transfer is not an upload edge of this plan")
        old_target = self.plan.parent[uploader]
        if old_target == self.plan.destination:
            raise PlanError("cannot retune an edge already pointing at the destination")

        self.plan.redirect_to_destination(uploader)
        remaining = max(transfer.size - transfer.bytes_completed, self.slice_size)
        replacement = self._make_edge(uploader, self.plan.destination, size=remaining)
        # Preserve the uploader's own input dependencies.
        for child in self.plan.children(uploader):
            replacement.depends_on(self.uploads[child])
        # Register the new input with the final write *before* cancelling
        # the old edge so the write can never race past it.
        if self.write is not None:
            if not self.write.done:
                self.write.depends_on(replacement)
        else:
            replacement.on_complete.append(self._check_incoming)
        self.uploads[uploader] = replacement
        self.cluster.transfers.cancel(transfer)
        if self.started:
            self.cluster.transfers.start(replacement)
        return replacement
