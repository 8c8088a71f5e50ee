"""Fluid flows and the scheduler that drives them to completion."""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable

from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sim.allocator import RateAllocator
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

_EPSILON_BYTES = 1e-6
#: Completion entries within this many simulated seconds of the event
#: timestamp are treated as due (guards float drift in ETA arithmetic).
_EPSILON_TIME = 1e-9
_INF = float("inf")
_flow_ids = itertools.count()


#: Allocator counters mirrored into the registry as ``alloc.<name>``.
_ALLOC_COUNTERS = ("fills", "successions", "inert", "inert_arrivals")


def _fill_counts(allocator) -> tuple[int, ...]:
    """The allocator's counters so far; the test oracles keep none."""
    return tuple(getattr(allocator, name, 0) for name in _ALLOC_COUNTERS)


class Flow:
    """A single data movement across a fixed set of resources.

    The flow occupies every resource in ``resources`` simultaneously (e.g.
    source uplink + destination downlink + destination disk) and advances
    at the max-min fair rate the allocator assigns.

    Hot state (``remaining``, ``rate``, settle stamp, ETA) lives in
    plain slots: the scheduler reads and writes them millions of times
    per run, so nothing may stand between it and the value. So does the
    allocator's (``_unique``, ``_mark``, ``_rank``: see
    :mod:`repro.sim.allocator`), which discovery and fill read instead of
    per-recompute maps.
    """

    __slots__ = (
        "id",
        "name",
        "size",
        "resources",
        "tag",
        "started_at",
        "completed_at",
        "cancelled",
        "on_complete",
        "remaining",
        "rate",
        "_obs_span",
        "_settled_at",
        "_eta",
        "_unique",
        "_mark",
        "_rank",
    )

    def __init__(
        self,
        name: str,
        size: float,
        resources: tuple[Resource, ...],
        tag: str = "default",
    ) -> None:
        if size < 0:
            raise SimulationError(f"flow {name!r} has negative size")
        self.id = next(_flow_ids)
        self.name = name
        self.size = float(size)
        self.resources = tuple(resources)
        self.tag = tag
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.cancelled = False
        self.on_complete: list[Callable[[Flow], None]] = []
        #: Bytes left to deliver.
        self.remaining = float(size)
        #: Current allocated transfer rate (bytes/s).
        self.rate = 0.0
        self._obs_span = None
        self._settled_at = 0.0
        self._eta: float | None = None

    @property
    def done(self) -> bool:
        """True once the flow delivered all its bytes."""
        return self.completed_at is not None

    @property
    def transferred(self) -> float:
        """Bytes delivered so far."""
        return self.size - self.remaining

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<Flow {self.name} {self.transferred:.0f}/{self.size:.0f}B>"


class FlowScheduler:
    """Owns the active flow set; settles progress and reallocates rates.

    Mutations (start, cancel, capacity change) register with the
    allocator, which tracks the resources each one touched; the actual
    rate recomputation is one :meth:`Simulator.defer` event, so a burst
    of mutations at one timestamp pays for a single allocation *epoch*,
    and the epoch closes inline, without a trip through the event queue,
    when nothing else is due before it. A completion that opens an epoch
    leaves the completion event to the recompute when the engine says it
    runs next (:meth:`Simulator.runs_next`): the recompute syncs it anyway.
    A completion defers no recompute at all when nothing else is due now
    (:meth:`Simulator.quiet_now`): that epoch would run next and alone,
    so the handler runs it in place, and every other event keeps its
    relative ``(time, seq)`` order. The scheduler reads the clock as
    ``sim.now``, which only the engine writes.
    Each epoch re-rates only the contention component reachable from the
    touched resources (see :class:`repro.sim.allocator.RateAllocator`);
    flows outside it keep their rates, and their in-flight progress is
    settled lazily — per flow, when its rate next changes, when it
    completes, or when a monitor calls :meth:`settle_now`.

    Completions are tracked in a lazy min-heap keyed by each flow's
    estimated finish time. A rate change pushes a fresh entry and
    invalidates the old one (stale entries are skipped on pop). Stale
    entries only leave the heap when they reach its head, and an ETA
    that keeps moving *earlier* (departures raising a hot link's rates)
    leaves its old entries deep inside it, so a recompute that finds
    more than ``4 * active + 64`` entries rebuilds the heap from its live
    ones. The heap thus holds O(active) entries after every recompute
    and a push or pop costs O(log active) (not O(log flows ever pushed)).

    ``py_flow_ops`` counts per-flow hot-path operations (settles,
    rate/ETA rewrites, completion-scan pops); ``benchmarks/perf`` reports
    it as a machine-independent measure of scheduler work.
    """

    def __init__(self, sim: Simulator, allocator: RateAllocator | None = None) -> None:
        self.sim = sim
        # Insertion-ordered dict used as a set: Flow hashes by identity,
        # and iteration (settle_now's float accumulation order) must be
        # reproducible run-to-run for deterministic replay.
        self.active: dict[Flow, None] = {}
        self.allocator = allocator if allocator is not None else RateAllocator()
        self.py_flow_ops = 0
        self._recompute_event = None
        self._completion_event = None
        self._eta_heap: list[tuple[float, int, Flow]] = []
        self._eta_seq = itertools.count()

    def start_flow(self, flow: Flow) -> None:
        """Begin transferring ``flow``; completion callbacks fire later."""
        if flow.done or flow.cancelled:
            raise SimulationError(f"cannot start finished flow {flow.name!r}")
        flow.started_at = self.sim.now
        flow._settled_at = self.sim.now
        tracer = get_tracer()
        if tracer.enabled:
            # One span per flow, mirrored onto every resource it occupies
            # so the exported trace shows one row per uplink/downlink/disk.
            flow._obs_span = tracer.span(
                "flow",
                track=tuple(res.name for res in flow.resources),
                flow=flow.name,
                size=flow.size,
                tag=flow.tag,
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("flows.started").inc()
        if flow.remaining <= _EPSILON_BYTES:
            # Zero-byte flow: complete immediately (still asynchronously,
            # so callers observe a consistent ordering).
            self.sim.schedule(0.0, self._complete_flow, flow)
            return
        self.active[flow] = None
        self.allocator.add_flow(flow)
        self._request_recompute()

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a flow; its completion callbacks never fire.

        Idempotent, and a no-op for flows that already completed (a
        finished flow cannot be un-finished, and counting it as cancelled
        would double-book it). A flow that was never started is only
        marked cancelled — so a later :meth:`start_flow` raises — without
        touching counters or the active set.
        """
        if flow.done or flow.cancelled:
            return
        flow.cancelled = True
        if flow._obs_span is not None:
            flow._obs_span.finish(status="cancelled")
            flow._obs_span = None
        if flow.started_at is None:
            return
        registry = get_registry()
        if registry.enabled:
            registry.counter("flows.cancelled").inc()
        if flow in self.active:
            self._settle_flow(flow)
            self.active.pop(flow, None)
            self.allocator.remove_flow(flow)
            flow._eta = None
            self._request_recompute()

    def capacity_changed(self, *resources: Resource) -> None:
        """Re-run allocation after resource capacities were modified.

        Passing the changed resources re-rates only their contention
        component; with no arguments every active flow is re-rated.
        """
        self.allocator.mark_dirty(*resources)
        self._request_recompute()

    def settle_now(self) -> None:
        """Flush in-flight progress into the resource byte counters.

        Monitors call this before reading counters; otherwise bytes
        transferred since each flow's last settle would be invisible.
        """
        for flow in self.active:
            self._settle_flow(flow)

    # -- internal machinery -------------------------------------------------

    def _settle_flow(self, flow: Flow) -> None:
        self.py_flow_ops += 1
        now = self.sim.now
        dt = now - flow._settled_at
        if dt <= 0:
            flow._settled_at = now
            return
        delta = min(flow.remaining, flow.rate * dt)
        if delta > 0:
            flow.remaining -= delta
            for res in flow.resources:
                res.account(flow.tag, delta)
        flow._settled_at = now

    def _request_recompute(self) -> None:
        if self._recompute_event is None or self._recompute_event.cancelled:
            self._recompute_event = self.sim.defer(self._do_recompute)

    def _do_recompute(self) -> None:
        self._recompute_event = None
        registry = get_registry()
        wall_start = time.perf_counter() if registry.enabled else 0.0
        before = _fill_counts(self.allocator) if registry.enabled else ()
        touched = self.allocator.recompute(on_touch=self._settle_flow)
        if touched:
            self.py_flow_ops += len(touched)
            now = self.sim.now
            active = self.active
            for flow in touched:
                if flow not in active:
                    continue
                rate = flow.rate
                if rate > 0:
                    eta = now if rate == _INF else now + flow.remaining / rate
                    if flow._eta is not None and abs(eta - flow._eta) <= _EPSILON_TIME:
                        # The rate came out unchanged: the existing heap
                        # entry still points at the right time, so skip
                        # the push and keep the heap free of duplicates.
                        continue
                    flow._eta = eta
                    heapq.heappush(self._eta_heap, (eta, next(self._eta_seq), flow))
                else:
                    flow._eta = None
        if len(self._eta_heap) > 4 * len(self.active) + 64:
            self._compact_eta_heap()
        if registry.enabled:
            registry.counter("alloc.passes").inc()
            after = _fill_counts(self.allocator)
            for name, was, total in zip(_ALLOC_COUNTERS, before, after):
                registry.counter(f"alloc.{name}").inc(total - was)
            registry.counter("alloc.flows_touched").inc(len(touched))
            registry.histogram("alloc.component_size").observe(len(touched))
            registry.histogram("alloc.duration_s").observe(
                time.perf_counter() - wall_start
            )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "flows.rebalanced",
                track="flows",
                active=len(self.active),
                touched=len(touched),
            )
        self._sync_completion_event()

    def _compact_eta_heap(self) -> None:
        """Rebuild the ETA heap from the entries the pop path would keep.

        Entries keep their sequence numbers, so live entries pop in the
        order they would have without the rebuild; only an entry that a
        flow's ETA would later have come back to, float for float, is
        lost (the flow's newer entry for the same instant stands in).
        """
        heap = self._eta_heap
        active = self.active
        heap[:] = [entry for entry in heap if entry[2]._eta == entry[0] and entry[2] in active]
        heapq.heapify(heap)

    def _earliest_eta(self) -> float | None:
        """Earliest live completion ETA, or None when nothing is pending."""
        heap = self._eta_heap
        while heap:
            eta, _, flow = heap[0]
            if flow._eta == eta and flow in self.active:
                return eta
            heapq.heappop(heap)  # stale: rate changed, cancelled, or done
        return None

    def _sync_completion_event(self) -> None:
        """Point the single completion event at the earliest live ETA."""
        earliest = self._earliest_eta()
        if earliest is None:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        target = max(earliest, self.sim.now)
        if self._completion_event is not None:
            if not self._completion_event.cancelled and (
                self._completion_event.time == target
            ):
                return
            self._completion_event.cancel()
        self._completion_event = self.sim.call_at(target, self._on_completion_event)

    def _on_completion_event(self) -> None:
        self._completion_event = None
        now = self.sim.now
        heap = self._eta_heap
        finished: list[Flow] = []
        while heap:
            eta, _, flow = heap[0]
            if flow._eta != eta or flow not in self.active:
                heapq.heappop(heap)
                continue
            if eta > now + _EPSILON_TIME:
                break
            heapq.heappop(heap)
            self.py_flow_ops += 1
            self._settle_flow(flow)
            if flow.remaining <= _EPSILON_BYTES or (
                flow.rate > 0 and flow.remaining <= flow.rate * _EPSILON_TIME
            ):
                # Done, or the residue finishes within the due window —
                # at Gb/s rates a byte-scale sliver has a sub-nanosecond
                # ETA, and retrying it at this same timestamp can never
                # make progress (dt == 0). _complete_flow accounts the
                # residual bytes.
                finished.append(flow)
            elif flow.rate > 0:
                # Float drift left unfinished bytes; re-index the flow.
                flow._eta = now + flow.remaining / flow.rate
                heapq.heappush(heap, (flow._eta, next(self._eta_seq), flow))
            else:  # pragma: no cover - defensive; a due entry implies
                # the rate it was computed with is still in force.
                flow._eta = None
        for flow in finished:
            self.active.pop(flow, None)
            self.allocator.remove_flow(flow)
            flow._eta = None
        for flow in finished:
            self._complete_flow(flow)
        if finished:
            if self.sim.quiet_now():
                # Nothing else is due now (an earlier recompute request
                # would be: deferred, or queued at now), so the deferred
                # epoch would run next and alone: it runs here.
                self._do_recompute()
                return
            self._request_recompute()
        if not self.sim.runs_next(self._recompute_event):
            self._sync_completion_event()

    def _complete_flow(self, flow: Flow) -> None:
        if flow.done or flow.cancelled:
            return
        if flow.remaining > 0:
            # Attribute the sub-epsilon residue so resource byte
            # counters conserve the flow's full size.
            for res in flow.resources:
                res.account(flow.tag, flow.remaining)
        flow.remaining = 0.0
        flow.completed_at = self.sim.now
        if flow._obs_span is not None:
            flow._obs_span.finish()
            flow._obs_span = None
        registry = get_registry()
        if registry.enabled:
            registry.counter("flows.completed").inc()
            registry.counter("flows.bytes").inc(flow.size)
            if flow.started_at is not None:
                registry.histogram("flow.duration_s").observe(
                    flow.completed_at - flow.started_at
                )
        for callback in list(flow.on_complete):
            callback(flow)
