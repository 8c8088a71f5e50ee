"""Reference allocators the tests hold ``repro.sim.RateAllocator`` to.

Test oracles, not product code: they are slow on purpose (every round
rescans every resource; :class:`FromScratchAllocator` re-rates every
flow on every epoch) and share nothing with the allocator under test
beyond the ``_SHARE_SLACK`` constant and the ``Resource`` type.

* :class:`ReferenceRateAllocator` — the incremental allocator exactly as
  it stood before the count-based fill replaced ``_progressive_fill``
  (the code the retired columnar kernel was also held to). The new fill
  must reproduce it bit for bit: same rates (``==``), same order of the
  returned ``changed`` list.
* :class:`FromScratchAllocator` — global progressive filling on every
  epoch; the oracle for "incremental == from scratch" at 1e-9.
* :class:`AuditedRateAllocator` — the allocator under test itself, with
  an audit hung on every succession, inert departure and inert arrival
  it takes (the places it answers without a fill): a max-min certificate that
  depends on neither fill, and the reference fill's answer for the same
  component; plus, after every epoch, a check of the bottleneck it
  recorded for each flow.
* :class:`QueueOnlySimulator` — the engine with every deferred event sent
  through the queue, so nothing runs inline; what a run on it computes
  must equal the real engine's.
* :class:`NeverQuietSimulator` — the engine that never reports a quiet
  instant, so a completion's epoch is always deferred, never run in
  place; what a run on it computes must equal the real engine's.
  :class:`InPlaceCountingScheduler` counts the epochs run in place.
* :class:`TransferOnlyManager` — the transfer manager with every
  foreground request built as a :class:`~repro.sim.transfers.Transfer`,
  as before a single-slice request ran as one bare flow; what a run with
  it computes must equal the real manager's
  (:func:`requests_through_transfers` installs it on a cluster).

:func:`hot_link_mix` is the stress recipe of the benchmark's ``hot_mix``
workload (many flows fused into one component on a few hot links) at any
size, on any scheduler.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from repro.cluster.node import MB, mbs
from repro.sim.allocator import _SHARE_SLACK, AllocatableFlow, RateAllocator
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.flows import Flow, FlowScheduler
from repro.sim.resources import Resource
from repro.sim.transfers import Transfer, TransferManager


def _unique_resources(flow: AllocatableFlow) -> tuple[Resource, ...]:
    """A flow's resources with duplicates removed, order preserved.

    A flow listing the same resource twice must count once against that
    resource (it occupies one share of the pipe, not two); deduplicating
    here keeps the usage subtraction and the user set consistent.
    """
    return tuple(dict.fromkeys(flow.resources))


def _progressive_fill(
    flows: Iterable[AllocatableFlow],
    flow_resources: dict[AllocatableFlow, tuple[Resource, ...]],
) -> dict[AllocatableFlow, float]:
    """Max-min rates for a *closed* set of flows.

    ``flows`` must be closed under resource sharing (every flow crossing
    a resource of a listed flow is itself listed); ``flow_resources``
    maps each to its deduplicated resource tuple. Repeatedly finds the
    bottleneck resource (smallest fair share among its unfixed flows),
    freezes its flows at that share, subtracts their usage everywhere,
    and continues.

    Floating-point contract: each round subtracts the frozen usage from
    a resource as one fused ``share * count`` product (not ``count``
    successive subtractions).
    """
    # ``users`` values are insertion-ordered dicts used as sets: iteration
    # order (bottleneck tie-breaks, freeze order, hence ``rates`` insertion
    # order) must not depend on object identity hashes, or two identical
    # runs diverge in how they order same-instant flow completions.
    rates: dict[AllocatableFlow, float] = {}
    n_unfixed = 0
    remaining: dict[Resource, float] = {}
    users: dict[Resource, dict[AllocatableFlow, None]] = {}
    for flow in flows:
        resources = flow_resources[flow]
        if not resources:
            # Unconstrained in the fluid model: unbounded rate.
            rates[flow] = float("inf")
            continue
        n_unfixed += 1
        for res in resources:
            members = users.get(res)
            if members is None:
                remaining[res] = res.capacity
                users[res] = {flow: None}
            else:
                members[flow] = None

    inf = float("inf")
    while n_unfixed:
        bottleneck: Resource | None = None
        best_share = inf
        for res, members in users.items():
            # Clamp float drift: repeated subtraction can push a fully
            # used resource a hair below zero, which must not turn into
            # a negative share. (Every entry in ``users`` is non-empty:
            # emptied entries are deleted in the freeze loop below.)
            cap = remaining[res]
            share = cap / len(members) if cap > 0.0 else 0.0
            if share < best_share - _SHARE_SLACK:
                best_share = share
                bottleneck = res
        if bottleneck is None:  # pragma: no cover - defensive; every
            # unfixed flow sits in a non-empty user set by construction.
            for members in users.values():
                for flow in members:
                    rates.setdefault(flow, inf)
            break
        removed: dict[Resource, int] = {}
        for flow in users.pop(bottleneck):
            rates[flow] = best_share
            n_unfixed -= 1
            for res in flow_resources[flow]:
                if res is bottleneck:
                    continue
                members = users.get(res)
                if members is None:
                    continue
                members.pop(flow, None)
                removed[res] = removed.get(res, 0) + 1
        for res, count in removed.items():
            remaining[res] -= best_share * count
            if not users[res]:
                del users[res]
    return rates


class ReferenceRateAllocator:
    """The dict-of-dicts allocator ``repro.sim.RateAllocator`` replaced, kept
    verbatim as the bit-identity oracle for its count-based fill.

    Mutations (:meth:`add_flow`, :meth:`remove_flow`, :meth:`mark_dirty`)
    only record which resources were touched; :meth:`recompute` then
    re-rates the connected component of flows reachable from those dirty
    resources and leaves every other flow's rate untouched. The caller
    (normally :class:`repro.sim.flows.FlowScheduler`) coalesces a burst
    of same-timestamp mutations into a single recompute epoch.
    """

    def __init__(self) -> None:
        # Insertion-ordered dicts stand in for sets throughout: flows and
        # resources hash by identity, so genuine sets would iterate in
        # address order and make component traversal — and with it the
        # ordering of same-instant completions — vary between runs.
        self._flow_resources: dict[AllocatableFlow, tuple[Resource, ...]] = {}
        self._users: dict[Resource, dict[AllocatableFlow, None]] = {}
        self._dirty: dict[Resource, None] = {}
        self._all_dirty = False
        # Flows added since the last recompute: they need a rate (and the
        # scheduler needs to index their ETA) even if nothing else moved.
        self._fresh: dict[AllocatableFlow, None] = {}

    def __len__(self) -> int:
        return len(self._flow_resources)

    def add_flow(self, flow: AllocatableFlow) -> None:
        """Register ``flow``; its resources become dirty."""
        if flow in self._flow_resources:
            return
        unique = _unique_resources(flow)
        self._flow_resources[flow] = unique
        self._fresh[flow] = None
        for res in unique:
            self._users.setdefault(res, {})[flow] = None
            self._dirty[res] = None

    def remove_flow(self, flow: AllocatableFlow) -> None:
        """Unregister ``flow`` (completed or cancelled); resources dirty."""
        unique = self._flow_resources.pop(flow, None)
        if unique is None:
            return
        self._fresh.pop(flow, None)
        for res in unique:
            members = self._users.get(res)
            if members is not None:
                members.pop(flow, None)
                if not members:
                    del self._users[res]
            self._dirty[res] = None

    def mark_dirty(self, *resources: Resource) -> None:
        """Mark capacity-changed resources; no arguments marks everything."""
        if not resources:
            self._all_dirty = True
        else:
            self._dirty.update(dict.fromkeys(resources))

    def recompute(
        self, on_touch: Callable[[AllocatableFlow], None] | None = None
    ) -> list[AllocatableFlow]:
        """Re-rate the flows affected by mutations since the last call.

        Re-runs progressive filling over the connected component
        reachable from the dirty resources, then rewrites only the rates
        that actually moved. ``on_touch`` is invoked once per rewritten
        flow *before* its rate changes (the scheduler uses it to settle
        progress at the old rate — which is exactly when settling is
        required: a flow whose rate is unchanged keeps accruing progress
        linearly from its older settle stamp). Returns the rewritten
        flows; every other registered flow kept its previous rate.
        """
        flow_resources = self._flow_resources
        if self._all_dirty:
            comp_flows: dict[AllocatableFlow, None] = dict.fromkeys(flow_resources)
        else:
            users = self._users
            comp_flows = {}
            visited: set[Resource] = set()
            stack = [res for res in self._dirty if res in users]
            while stack:
                res = stack.pop()
                if res in visited:
                    continue
                visited.add(res)
                for flow in users[res]:
                    if flow not in comp_flows:
                        comp_flows[flow] = None
                        for other in flow_resources[flow]:
                            if other not in visited:
                                stack.append(other)
            if self._fresh:
                # Resource-less fresh flows sit in no user set; they
                # still need their (unbounded) rate assigned once.
                comp_flows.update(
                    dict.fromkeys(
                        flow for flow in self._fresh if not flow_resources[flow]
                    )
                )
        self._dirty.clear()
        self._all_dirty = False
        self._fresh.clear()
        if not comp_flows:
            return []
        changed: list[AllocatableFlow] = []
        if len(comp_flows) == 1:
            # Fast path for the common case of an uncontended component:
            # a lone flow's max-min rate is its tightest capacity.
            (flow,) = comp_flows
            rate = float("inf")
            for res in flow_resources[flow]:
                if res.capacity < rate:
                    rate = res.capacity
            if rate != flow.rate:
                if on_touch is not None:
                    on_touch(flow)
                flow.rate = rate
                changed.append(flow)
            return changed
        rates = _progressive_fill(comp_flows, flow_resources)
        for flow, rate in rates.items():
            if rate != flow.rate:
                if on_touch is not None:
                    on_touch(flow)
                flow.rate = rate
                changed.append(flow)
        return changed


class FromScratchAllocator:
    """Reference allocator: global progressive filling on every epoch.

    Implements the same interface as :class:`RateAllocator` so it can be
    dropped into a :class:`repro.sim.flows.FlowScheduler` as the oracle
    in equivalence tests and as the baseline in scaling benchmarks.
    """

    def __init__(self) -> None:
        self._flows: dict[AllocatableFlow, None] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def add_flow(self, flow: AllocatableFlow) -> None:
        self._flows[flow] = None

    def remove_flow(self, flow: AllocatableFlow) -> None:
        self._flows.pop(flow, None)

    def mark_dirty(self, *resources: Resource) -> None:
        pass  # every recompute is global anyway

    def recompute(
        self, on_touch: Callable[[AllocatableFlow], None] | None = None
    ) -> list[AllocatableFlow]:
        flows = list(self._flows)
        if on_touch is not None:
            for flow in flows:
                on_touch(flow)
        mapping = {flow: _unique_resources(flow) for flow in flows}
        for flow, rate in _progressive_fill(mapping, mapping).items():
            flow.rate = rate
        return flows


def max_min_violations(
    flows: Iterable[AllocatableFlow], rel_tol: float = 1e-9
) -> list[str]:
    """Why the rates standing on ``flows`` are *not* max-min fair.

    The certificate needs no fill: an allocation over a closed set of
    flows is the max-min optimum iff no resource carries more than its
    capacity and every flow crosses a saturated resource on which no
    other flow is faster (its bottleneck). ``rel_tol`` absorbs float
    drift in the sums. Resource-less flows are unconstrained and skipped.
    """
    flows = list(flows)
    paths = {flow: _unique_resources(flow) for flow in flows}
    load: dict[Resource, float] = {}
    fastest: dict[Resource, float] = {}
    for flow, path in paths.items():
        for res in path:
            load[res] = load.get(res, 0.0) + flow.rate
            fastest[res] = max(fastest.get(res, 0.0), flow.rate)
    problems = [
        f"{res.name}: carries {total!r} of {res.capacity!r}"
        for res, total in load.items()
        if total > res.capacity * (1.0 + rel_tol)
    ]
    for flow, path in paths.items():
        if path and not any(
            load[res] >= res.capacity * (1.0 - rel_tol)
            and flow.rate >= fastest[res] * (1.0 - rel_tol)
            for res in path
        ):
            problems.append(f"{flow!r}: rate {flow.rate!r} has no bottleneck")
    return problems


def bottleneck_violations(
    allocator: RateAllocator, rel_tol: float = 1e-9
) -> list[str]:
    """Why the bottlenecks ``allocator`` recorded do not certify its rates.

    Read after a ``recompute``: every registered flow has a record and no
    record outlives its flow; a recorded resource lies on the flow's
    path, is saturated and carries no faster flow (the certificate of
    :func:`max_min_violations`, checked at the resource the fill named).
    A ``None`` record says nothing froze the flow, which is only true of
    a flow that crosses no finite capacity.
    """
    records, paths = allocator._bottleneck, allocator._flow_resources
    problems = []
    if records.keys() != paths.keys():
        problems.append(
            f"records for {len(records)} flows, {len(paths)} registered: "
            f"{list(records.keys() ^ paths.keys())[:3]}"
        )
    load: dict[Resource, float] = {}
    fastest: dict[Resource, float] = {}
    for flow, res in records.items():
        if res is None:
            if any(r.capacity < float("inf") for r in paths.get(flow, ())):
                problems.append(f"{flow!r}: crosses a finite capacity, no record")
            continue
        if res not in paths.get(flow, ()):
            problems.append(f"{flow!r}: recorded {res.name} is not on its path")
            continue
        if res not in load:
            rates = [user.rate for user in allocator._users[res]]
            load[res], fastest[res] = sum(rates), max(rates)
        if load[res] < res.capacity * (1.0 - rel_tol):
            problems.append(f"{flow!r}: {res.name} carries {load[res]!r} of {res.capacity!r}")
        if flow.rate < fastest[res] * (1.0 - rel_tol):
            problems.append(f"{flow!r}: {res.name} carries a flow at {fastest[res]!r}")
    return problems


class AuditedRateAllocator(RateAllocator):
    """``RateAllocator`` that checks every epoch it answers without a fill.

    A succession, an inert departure and an inert arrival keep the
    standing solution instead of running the fill, so that is where an
    error could hide. After each one the audit walks what the skipped DFS
    would have walked, in its stack order (from the union of
    the arrivals' resources, in arrival order, for a succession; from the
    arrival's for an inert arrival; from the leavers' resources that
    still have users for an inert departure), and

    * asserts the max-min certificate over it (:func:`max_min_violations`
      — independent of this allocator's fill *and* of the reference's);
    * runs the reference :func:`_progressive_fill` over it and compares
      with what stands: ``worst_rel`` is the largest relative difference
      seen on any flow, ``moved`` counts the flows a re-fill would have
      rewritten (a bystander moved by an ulp, the documented difference),
      ``flapped`` / ``inert_flapped`` / ``arrival_flapped`` count the
      epochs with any such flow and ``audited`` / ``inert_audited`` /
      ``arrival_audited`` count them all.

    After *every* epoch it also asserts :func:`bottleneck_violations`.
    ``rel_tol`` bounds ``worst_rel`` (0.0 demands ``==``); a breach
    raises ``AssertionError`` from inside the simulation.
    """

    def __init__(self, rel_tol: float = 0.0) -> None:
        super().__init__()
        self.rel_tol = rel_tol
        self.audited = self.flapped = 0
        self.inert_audited = self.inert_flapped = 0
        self.arrival_audited = self.arrival_flapped = 0
        self.moved = 0
        self.worst_rel = 0.0

    def recompute(
        self, on_touch: Callable[[AllocatableFlow], None] | None = None
    ) -> list[AllocatableFlow]:
        arrivals, dirty = list(self._fresh), list(self._dirty)
        successions, inert, inert_arrivals = self.successions, self.inert, self.inert_arrivals
        changed = super().recompute(on_touch)
        if self.successions != successions:
            self.audited += 1
            self.flapped += self._audit(
                f"succession of {arrivals!r}",
                dict.fromkeys(res for flow in arrivals for res in self._flow_resources[flow]),
            )
        elif self.inert != inert:
            self.inert_audited += 1
            self.inert_flapped += self._audit(
                "inert departure", [res for res in dirty if res in self._users]
            )
        elif self.inert_arrivals != inert_arrivals:
            (arrival,) = arrivals
            self.arrival_audited += 1
            self.arrival_flapped += self._audit(
                f"inert arrival of {arrival!r}", self._flow_resources[arrival]
            )
        problems = bottleneck_violations(self)
        assert not problems, f"recorded bottlenecks: {problems[:3]}"
        return changed

    def _audit(self, what: str, roots: Iterable[Resource]) -> bool:
        """Audit the component reachable from ``roots``; True if a
        re-fill would have rewritten some flow."""
        flow_resources, users = self._flow_resources, self._users
        component: dict[AllocatableFlow, None] = {}
        visited: set[Resource] = set()
        stack = list(roots)
        while stack:
            res = stack.pop()
            if res in visited:
                continue
            visited.add(res)
            for flow in users[res]:
                if flow not in component:
                    component[flow] = None
                    stack.extend(r for r in flow_resources[flow] if r not in visited)
        problems = max_min_violations(component)
        assert not problems, f"{what} broke max-min: {problems[:3]}"
        flapped = False
        for flow, rate in _progressive_fill(component, flow_resources).items():
            if rate != flow.rate:
                flapped = True
                self.moved += 1
                rel = abs(rate - flow.rate) / max(abs(rate), abs(flow.rate))
                self.worst_rel = max(self.worst_rel, rel)
                assert rel <= self.rel_tol, (
                    f"{what}: {flow!r} stands at {flow.rate!r}, a re-fill says {rate!r}"
                )
        return flapped


class QueueOnlySimulator(Simulator):
    """``Simulator`` whose :meth:`defer` is ``schedule(0.0, ...)``: every
    deferred event takes the trip through the queue, and
    :meth:`~Simulator.runs_next` never confirms one, so a flow scheduler's
    completion handler always syncs its own completion event."""

    def defer(self, callback: Callable[..., Any], *args: Any) -> Event:
        return self.schedule(0.0, callback, *args)


class NeverQuietSimulator(Simulator):
    """``Simulator`` whose :meth:`~Simulator.quiet_now` is always False, so
    a flow scheduler never runs a completion's epoch in place: every epoch
    takes its deferred recompute. What a run on it computes, passes
    included, must equal the real engine's; only its ``events_dispatched``
    counts one more event per epoch the real engine ran in place."""

    def quiet_now(self) -> bool:
        return False


class InPlaceCountingScheduler(FlowScheduler):
    """``FlowScheduler`` that counts the epochs its completion handler runs
    in place: a deferred epoch runs after the handler returns, so every
    recompute inside the handler is one."""

    epochs = in_place = 0

    def _do_recompute(self) -> None:
        self.epochs += 1
        super()._do_recompute()

    def _on_completion_event(self) -> None:
        epochs = self.epochs
        super()._on_completion_event()
        self.in_place += self.epochs - epochs


class TransferOnlyManager(TransferManager):
    """``TransferManager`` whose :meth:`request` starts every request as a
    released :class:`Transfer`, whatever its size: the request path as it
    was before a single-slice request became one bare flow. Only the
    ``transfers.*`` counters and ``transfer`` spans see the difference."""

    def request(self, name, src, dst, resources, size, slice_size, tag, on_done) -> None:
        transfer = Transfer(name, resources, size, slice_size, tag=tag)
        transfer.src, transfer.dst = src, dst
        transfer.on_complete.append(lambda _t: on_done())
        self.start(transfer)


def requests_through_transfers(cluster) -> TransferOnlyManager:
    """Give ``cluster`` a :class:`TransferOnlyManager`; call it before
    anything starts a transfer or a request."""
    cluster.transfers = TransferOnlyManager(cluster.flows)
    return cluster.transfers


def hot_link_mix(scheduler, nodes: int, flows: int, seed: int = 0) -> list[Flow]:
    """Schedule the ``hot_mix`` recipe on ``scheduler``; returns its flows.

    The draws of ``benchmarks/perf/workloads.py``: ``flows`` transfers of
    4-63 MB start uniformly over 60 s between random nodes; 20 % of them
    have a server among the hot 5 % of ``nodes``, 95 % are reads (server
    uplink -> client downlink), the rest updates; every link carries
    100 MB/s. The hot links fuse the flows into one contention component.

    Its completion instants check rates, not orders: they stayed ``==``
    the reference allocator's under a fill that took the last tied
    minimum or reversed a round's member order (orders 1-2 of
    ``repro.sim.allocator``), at 100 or 125 MB/s a link and with a
    different capacity per link.
    ``tests/test_allocator_equivalence.py`` guards those orders.
    """
    rng = np.random.default_rng(seed)
    hot = max(1, int(nodes * 0.05))
    starts = rng.uniform(0, 60.0, flows)
    is_hot = rng.random(flows) < 0.2
    servers = np.where(is_hot, rng.integers(0, hot, flows), rng.integers(0, nodes, flows))
    clients = rng.integers(0, nodes, flows)
    is_read = rng.random(flows) < 0.95
    sizes = rng.integers(4, 64, flows) * float(MB)
    up = [Resource(f"n{i}.up", mbs(100.0)) for i in range(nodes)]
    down = [Resource(f"n{i}.down", mbs(100.0)) for i in range(nodes)]
    started = []
    for i in range(flows):
        src, dst = int(servers[i]), int(clients[i])
        if not is_read[i]:
            src, dst = dst, src
        flow = Flow(f"q{i}", float(sizes[i]), (up[src], down[dst]))
        scheduler.sim.schedule(float(starts[i]), scheduler.start_flow, flow)
        started.append(flow)
    return started
