"""Sliced, pipelined transfers built on top of fluid flows.

The paper (Section V-A) splits every chunk into fixed-size slices and
pipelines storage and network I/O for *all* repair algorithms. A
:class:`Transfer` models one chunk-sized movement between two endpoints
as an ordered sequence of slice flows; slice ``j`` may start only after

* slice ``j - 1`` of the same transfer finished (in-order delivery), and
* slice ``j`` of every dependency transfer finished (relay semantics:
  a relay can forward slice ``j`` of its partial result only once it has
  received slice ``j`` from each input).

This reproduces ECPipe's O(1) pipelining, PPR's tree stages, and the
slice-level behaviour of ChameleonEC's tunable plans.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable

from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sim.flows import Flow, FlowScheduler
from repro.sim.resources import Resource

_transfer_ids = itertools.count()


class Transfer:
    """A sliced data movement with cross-transfer pipelining dependencies."""

    __slots__ = (
        "id",
        "name",
        "resources",
        "size",
        "tag",
        "num_slices",
        "slice_sizes",
        "deps",
        "dependents",
        "completed_slices",
        "started_at",
        "completed_at",
        "cancelled",
        "failed",
        "failure_reason",
        "paused",
        "stalled",
        "released",
        "src",
        "dst",
        "on_complete",
        "on_failed",
        "on_slice",
        "_manager",
        "_inflight",
        "_obs_span",
    )

    def __init__(
        self,
        name: str,
        resources: tuple[Resource, ...],
        size: float,
        slice_size: float,
        tag: str = "default",
        transfer_id: int | None = None,
    ) -> None:
        if size <= 0:
            raise SimulationError(f"transfer {name!r} needs positive size")
        if slice_size <= 0:
            raise SimulationError(f"transfer {name!r} needs positive slice size")
        # A request promoted by ``TransferManager`` keeps the id it drew.
        self.id = next(_transfer_ids) if transfer_id is None else transfer_id
        self.name = name
        self.resources = tuple(resources)
        self.size = float(size)
        self.tag = tag
        self.num_slices = max(1, math.ceil(size / slice_size))
        base = size / self.num_slices
        self.slice_sizes = [base] * self.num_slices
        self.deps: list[Transfer] = []
        self.dependents: list[Transfer] = []
        self.completed_slices = 0
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.cancelled = False
        self.failed = False
        self.failure_reason: str | None = None
        self.paused = False
        self.stalled = False
        self.released = False
        # Endpoint node ids, set by ``Cluster.make_transfer``. Transfers
        # built without endpoints (e.g. a local disk write) are never
        # subject to reachability checks.
        self.src: int | None = None
        self.dst: int | None = None
        self.on_complete: list[Callable[[Transfer], None]] = []
        self.on_failed: list[Callable[[Transfer, str], None]] = []
        self.on_slice: list[Callable[[Transfer, int], None]] = []
        self._manager: TransferManager | None = None
        self._inflight: Flow | None = None
        self._obs_span = None

    def depends_on(self, other: Transfer) -> Transfer:
        """Declare a slice-wise pipeline dependency on ``other``."""
        if other is self:
            raise SimulationError("a transfer cannot depend on itself")
        self.deps.append(other)
        other.dependents.append(self)
        return self

    @property
    def done(self) -> bool:
        """True once every slice completed."""
        return self.completed_at is not None

    @property
    def bytes_completed(self) -> float:
        """Bytes of fully delivered slices."""
        return sum(self.slice_sizes[: self.completed_slices])

    @property
    def active(self) -> bool:
        """Released, unfinished, and not cancelled."""
        return self.released and not self.done and not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"<Transfer {self.name} {self.completed_slices}/{self.num_slices} slices>"
        )


class TransferManager:
    """Launches slice flows respecting pipeline dependencies.

    Foreground requests enter through :meth:`request`. One that fits a
    single slice while no partition is installed never needs the
    dependency, pause or slice machinery, so it runs as one bare flow
    and becomes a :class:`Transfer` only if :meth:`live_transfers` lists
    it (a partition cut, a fault picking victims).
    """

    def __init__(self, scheduler: FlowScheduler) -> None:
        self.scheduler = scheduler
        # Live = released but neither finished nor cancelled/failed. The
        # fault subsystem consults this registry to find the transfers a
        # node crash tears down or a flow interruption may hit.
        self._live: dict[int, Transfer] = {}
        # Reachability oracle installed by the cluster only while a
        # network partition is active (None = fully connected, keeping
        # the per-slice launch path free of overhead). Takes two node
        # ids and returns whether traffic may flow between them.
        self.reachability: Callable[[int, int], bool] | None = None
        # Transfers parked because their endpoints straddle a partition
        # cut, keyed by id for deterministic heal-time release order.
        self._stalled: dict[int, Transfer] = {}
        # Live single-slice requests that run as bare flows, by the
        # transfer id each drew: (name, src, dst, slice size, issue time,
        # flow, completion callback).
        self._requests: dict[int, tuple] = {}

    def live_transfers(self, tag: str | None = None) -> list[Transfer]:
        """Live transfers (optionally one traffic tag), ordered by id.

        The id ordering makes consumers deterministic: a seeded fault
        timeline picking a victim always sees the same candidate list.
        Live requests of the tag asked for are first promoted to the
        transfers they stand for, so they are listed in their id's place.
        """
        if self._requests:
            self._promote_requests(tag)
        return [
            t
            for _id, t in sorted(self._live.items())
            if tag is None or t.tag == tag
        ]

    def request(
        self,
        name: str,
        src: int,
        dst: int,
        resources: tuple[Resource, ...],
        size: float,
        slice_size: float,
        tag: str,
        on_done: Callable[[], None],
    ) -> None:
        """Move one foreground request from node ``src`` to node ``dst``
        over ``resources``; ``on_done()`` runs when its last byte lands.

        The one place that picks a request's path. A request that fits
        one slice while no partition is installed is one flow, named as
        a transfer's slice 0: it draws its transfer id now and stays in
        the live-request map until the flow completes. Any other request
        (several slices, or issued while a cut is installed) is a
        :class:`Transfer` from the start. Both paths compute the same
        results bit for bit.
        """
        if self.reachability is None and 0 < size <= slice_size:
            request_id = next(_transfer_ids)
            flow = Flow(f"{name}[0]", size, resources, tag)
            self._requests[request_id] = (
                name, src, dst, slice_size, self.scheduler.sim.now, flow, on_done
            )
            flow.on_complete.append(partial(self._finish_request, request_id))
            self.scheduler.start_flow(flow)
            return
        transfer = Transfer(name, resources, size, slice_size, tag=tag)
        transfer.src, transfer.dst = src, dst
        transfer.on_complete.append(lambda _t: on_done())
        self.start(transfer)

    def _finish_request(self, request_id: int, _flow: Flow) -> None:
        self._requests.pop(request_id)[-1]()

    def _promote_requests(self, tag: str | None) -> None:
        """Turn each live request of ``tag`` (None: every one) into the
        released transfer the Transfer path would hold at this instant:
        its id, its issue time, its in-flight slice 0."""
        for request_id, entry in list(self._requests.items()):
            name, src, dst, slice_size, issued, flow, on_done = entry
            if tag is not None and flow.tag != tag:
                continue
            del self._requests[request_id]
            transfer = Transfer(
                name, flow.resources, flow.size, slice_size,
                tag=flow.tag, transfer_id=request_id,
            )
            transfer.src, transfer.dst = src, dst
            transfer.on_complete.append(lambda _t, on_done=on_done: on_done())
            transfer._manager = self
            transfer.released = True
            transfer.started_at = issued
            transfer._inflight = flow
            flow.on_complete[:] = [lambda _f, t=transfer: self._slice_done(t, 0)]
            self._live[request_id] = transfer

    def start(self, transfer: Transfer) -> None:
        """Release a transfer; slices launch as dependencies permit."""
        if transfer.cancelled:
            raise SimulationError(f"cannot start cancelled transfer {transfer.name!r}")
        if transfer.released:
            return
        transfer._manager = self
        transfer.released = True
        self._live[transfer.id] = transfer
        transfer.started_at = self.scheduler.sim.now
        tracer = get_tracer()
        if tracer.enabled:
            transfer._obs_span = tracer.span(
                "transfer",
                track="tasks",
                task=transfer.name,
                task_id=transfer.id,
                size=transfer.size,
                slices=transfer.num_slices,
                tag=transfer.tag,
            )
        self._try_launch(transfer)

    def pause(self, transfer: Transfer) -> None:
        """Stop launching further slices (the in-flight slice completes).

        Only a live released transfer can pause: calls on transfers that
        are done, cancelled, not yet started, or already paused are
        no-ops (no state flip, no ``transfer.paused`` trace event).
        """
        if transfer.paused or not transfer.active:
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "transfer.paused",
                track="tasks",
                task=transfer.name,
                task_id=transfer.id,
                completed_slices=transfer.completed_slices,
            )
        transfer.paused = True

    def resume(self, transfer: Transfer) -> None:
        """Continue a paused transfer.

        Like :meth:`pause`, a no-op unless the transfer is live and
        released — resuming a transfer that finished or was cancelled
        while parked must not emit a spurious trace event.
        """
        if not transfer.paused or not transfer.active:
            return
        transfer.paused = False
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "transfer.resumed",
                track="tasks",
                task=transfer.name,
                task_id=transfer.id,
            )
        self._try_launch(transfer)

    def stall(self, transfer: Transfer) -> None:
        """Park a live transfer whose endpoints straddle a partition cut.

        The in-flight slice is dropped (its packets are blackholed, so
        the whole slice is re-sent after the cut heals) and no further
        slices launch until :meth:`unstall_all` releases the transfer.
        Unlike :meth:`pause`, stalling is involuntary: Chameleon's phase
        machinery resumes *paused* transfers freely, but a stalled one
        stays parked until connectivity returns. No-op unless live.
        """
        if transfer.stalled or not transfer.active:
            return
        transfer.stalled = True
        self._stalled[transfer.id] = transfer
        if transfer._inflight is not None:
            self.scheduler.cancel_flow(transfer._inflight)
            transfer._inflight = None
        registry = get_registry()
        if registry.enabled:
            registry.counter("transfers.stalled").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "transfer.stalled",
                track="tasks",
                task=transfer.name,
                task_id=transfer.id,
                completed_slices=transfer.completed_slices,
            )

    def unstall_all(self) -> list[Transfer]:
        """Release every stalled transfer, in id order.

        Each released transfer immediately re-checks reachability in
        ``_try_launch``, so under overlapping partitions a transfer that
        is still cut off simply parks again. Returns the transfers that
        were released (whether or not they re-stalled).
        """
        released = []
        for _id, transfer in sorted(self._stalled.items()):
            transfer.stalled = False
            released.append(transfer)
        self._stalled.clear()
        tracer = get_tracer()
        for transfer in released:
            if tracer.enabled:
                tracer.instant(
                    "transfer.unstalled",
                    track="tasks",
                    task=transfer.name,
                    task_id=transfer.id,
                )
            if transfer.active:
                self._try_launch(transfer)
        return released

    def cancel(self, transfer: Transfer) -> None:
        """Abort the transfer: in-flight slice is dropped, no callbacks fire.

        Idempotent; cancelling a finished transfer is a no-op (dependents
        were already woken exactly once by its completed slices).
        """
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        self._live.pop(transfer.id, None)
        self._stalled.pop(transfer.id, None)
        if transfer._obs_span is not None:
            transfer._obs_span.finish(status="cancelled")
            transfer._obs_span = None
        if transfer._inflight is not None:
            self.scheduler.cancel_flow(transfer._inflight)
            transfer._inflight = None
        # Dependents blocked on this transfer's remaining slices may now run.
        for dependent in transfer.dependents:
            if dependent.released:
                self._try_launch(dependent)

    def fail(self, transfer: Transfer, reason: str = "failed") -> None:
        """Abort the transfer *as a fault*: cancel it, then fire ``on_failed``.

        Unlike :meth:`cancel` (a deliberate scheduling decision, silent to
        the owner), a failure notifies the transfer's owner so recovery
        machinery can retry or re-plan. Idempotent; failing a finished or
        already-cancelled transfer is a no-op.
        """
        if transfer.done or transfer.cancelled:
            return
        transfer.failed = True
        transfer.failure_reason = reason
        if transfer._obs_span is not None:
            transfer._obs_span.finish(status="failed", reason=reason)
            transfer._obs_span = None
        self.cancel(transfer)
        registry = get_registry()
        if registry.enabled:
            registry.counter("transfers.failed").inc()
        for callback in list(transfer.on_failed):
            callback(transfer, reason)

    def fail_crossing(
        self,
        resources: tuple[Resource, ...] | list[Resource],
        reason: str,
        *,
        tag: str | None = None,
    ) -> list[Transfer]:
        """Fail every live transfer routed through any of ``resources``.

        Used by the fault subsystem when a node crashes: all in-flight
        (optionally tag-filtered) movements touching the node's links or
        disks are torn down, and their owners are notified via
        ``on_failed``. Returns the failed transfers.
        """
        wanted = set(id(r) for r in resources)
        victims = [
            t
            for t in self.live_transfers(tag)
            if any(id(r) in wanted for r in t.resources)
        ]
        for transfer in victims:
            self.fail(transfer, reason)
        return victims

    # -- internals -----------------------------------------------------------

    def _deps_ready(self, transfer: Transfer, slice_idx: int) -> bool:
        for dep in transfer.deps:
            if dep.cancelled:
                # A cancelled dependency no longer gates this transfer
                # (re-tuning removes inputs and redirects them elsewhere).
                continue
            # Proportional gating: finishing slice j of this transfer
            # requires the corresponding fraction of every input, so the
            # last slice always waits for the whole dependency (a relay
            # cannot emit its final combined bytes before receiving all
            # inputs, whatever the relative sizes).
            fraction = (slice_idx + 1) / transfer.num_slices
            needed = math.ceil(fraction * dep.num_slices - 1e-9)
            if dep.completed_slices < min(needed, dep.num_slices):
                return False
        return True

    def _unreachable(self, transfer: Transfer) -> bool:
        """Whether a partition cuts the transfer's endpoints apart; asked
        only while :attr:`reachability` is installed."""
        return (
            transfer.src is not None
            and transfer.dst is not None
            and not self.reachability(transfer.src, transfer.dst)
        )

    def _try_launch(self, transfer: Transfer) -> None:
        if (
            not transfer.active
            or transfer.paused
            or transfer.stalled
            or transfer._inflight is not None
        ):
            return
        idx = transfer.completed_slices
        if idx >= transfer.num_slices:
            return
        if transfer.deps and not self._deps_ready(transfer, idx):
            return
        if self.reachability is not None and self._unreachable(transfer):
            # A new cross-cut slice is refused at the source: the
            # transfer parks until the partition heals.
            self.stall(transfer)
            return
        # Every slice crosses the same tuple and follows its predecessor
        # at the same instant, so a slice boundary is a succession epoch,
        # which the allocator answers without a fill.
        flow = Flow(
            name=f"{transfer.name}[{idx}]",
            size=transfer.slice_sizes[idx],
            resources=transfer.resources,
            tag=transfer.tag,
        )
        flow.on_complete.append(lambda _f, t=transfer, i=idx: self._slice_done(t, i))
        transfer._inflight = flow
        self.scheduler.start_flow(flow)

    def _slice_done(self, transfer: Transfer, idx: int) -> None:
        transfer._inflight = None
        if transfer.cancelled:
            return
        transfer.completed_slices = idx + 1
        if transfer.on_slice:
            for callback in list(transfer.on_slice):
                callback(transfer, idx)
        # Wake dependents that were waiting on this slice.
        for dependent in transfer.dependents:
            if dependent.released:
                self._try_launch(dependent)
        if transfer.completed_slices >= transfer.num_slices:
            transfer.completed_at = self.scheduler.sim.now
            self._live.pop(transfer.id, None)
            if transfer._obs_span is not None:
                transfer._obs_span.finish()
                transfer._obs_span = None
            registry = get_registry()
            if registry.enabled:
                registry.counter("transfers.completed").inc()
                if transfer.started_at is not None:
                    registry.histogram("transfer.duration_s").observe(
                        transfer.completed_at - transfer.started_at
                    )
            for callback in list(transfer.on_complete):
                callback(transfer)
        else:
            self._try_launch(transfer)
