"""Max-min fair bandwidth allocation (progressive filling).

Given a set of flows, each traversing a set of resources, the allocator
assigns every flow the largest rate such that (i) no resource exceeds its
capacity and (ii) the allocation is max-min fair: a flow's rate can only
be increased by decreasing that of a flow with an equal or smaller rate.
This is the standard fluid model for TCP-like fair sharing and is what
makes repair flows and foreground flows contend realistically on node
up/downlinks.

There is one allocator, :class:`RateAllocator`, and one fill,
:meth:`RateAllocator._progressive_fill`. The allocator persists the
flow/resource contention graph across calls, tracks the resources touched
by each mutation, and on :meth:`RateAllocator.recompute` re-rates only the
connected component of flows reachable from those dirty resources.
Max-min allocations decompose exactly over connected components of the
bipartite flow/resource graph (flows in different components share no
resource, so neither can affect the other's bottleneck), which makes the
incremental result identical to a from-scratch pass (the same optimum
always; bit for bit except where orders 4 to 6 below say whose ties
stand) — only cheaper when the contention graph is not one giant
component. :func:`allocate_rates` is that from-scratch pass: the same
allocator, filled once, every flow dirty.

The fill is count-based: per resource of the component (in the order
discovery slotted them) it keeps the capacity still unclaimed, the
number of flows not yet frozen and their quotient (the fair share) in
three parallel lists, takes each round's bottleneck with a C-level
``min``/``index``, and afterwards recomputes only the shares of the
resources the frozen flows crossed. Discovery and fill keep their
per-epoch state on the objects, not in maps: each recompute draws an
epoch and stamps it as a flow's ``_mark`` (discovered, not yet frozen;
``_rank`` its discovery index) and a resource's ``_mark`` (slotted;
``_slot`` its index) and ``_seen`` (visited). The round that freezes a
flow clears its mark and writes its rate. The counter is module-wide, as
several allocators may rate the same flows and resources: a stamp one
left is an epoch no other draws. The allocator also keeps, per flow, the
resource that froze it (its *bottleneck*): the fill round's, the
tightest resource of a lone flow, its leaver's for a succession's
arrival, the replay's for an inert arrival, ``None`` for a flow no
finite capacity bounds.

Simulated results are a bit-level contract (``tests/oracles.py`` keeps
the dict-of-dicts fill this one replaced as ``ReferenceRateAllocator``,
and the equivalence battery compares rates with ``==``), so six orders
are part of the allocator's interface, not accidents of it:

1. **Resource scan order** — resources are numbered by first appearance
   over the component's flows in discovery order (each flow's resource
   tuple left to right): exactly when the depth-first discovery first
   meets them in a discovered flow's tuple. The bottleneck is the
   *first* resource in that order with the smallest share; tied
   bottlenecks that share a flow resolve differently in another order
   (``(1e8 - 1e8 / 3) / 2 != 1e8 / 3``).
2. **Within-round member order** — the flows a round freezes are the
   bottleneck's users still marked, sorted by discovery index. Freeze
   order is the order of the returned ``changed`` list, hence of settles
   and of the scheduler's ETA-heap sequence numbers, hence of
   same-instant completions.
3. **Fused subtraction** — a round charges a resource once,
   ``remaining -= share * count`` (not ``count`` successive
   subtractions), and a share is ``remaining / n if remaining > 0.0
   else 0.0``.
4. **A succession epoch keeps the standing solution** — when an epoch's
   arrivals pair one to one with its rated departures over equal,
   non-empty deduplicated resource tuples and nothing else happened (a
   ``Transfer``'s slice boundary, or several at one instant: most flow
   starts are), no constraint changed, so no fill runs: each arrival,
   in arrival order, takes the rate and bottleneck of the first leaver
   over its tuple not yet taken, and nobody else is written. The
   arrivals are settled and returned in arrival order, where a re-fill
   would emit them by round, then discovery rank. Its tie resolution is
   that of the last fill that ran; a re-fill would walk a fresh
   discovery order and, where tied bottlenecks divide inexactly
   (``1.25e8 / 9``), move bystanders by one ulp.
5. **An inert departure keeps the standing solution** — when an epoch
   only removed rated flows (no arrival, no capacity mark, no flow that
   came and went unrated) and no flow left on a leaver's resource was
   frozen by that resource (a flow without a bottleneck counts as one
   that was), every remaining flow's bottleneck carries the load it
   carried, so each is still saturated with no faster flow: the standing
   rates are the optimum, no fill runs and nothing is written. The
   caveat of order 4 applies: ties stand as the last fill left them.
6. **An inert arrival keeps the standing solution** — when an epoch is
   one arrival and nothing else, sharing finite positive capacities with
   recorded flows, the fill is replayed on its resources alone: each
   other user freezes in a known round (standing rate, record) by
   ascending level with order 3's arithmetic, the arrival on its
   tightest resource. If no resource reaches the level of a round it
   still carries (one that froze a user of its own does: it is full),
   only the arrival is written. The fill runs where its order would
   show: tied resources of the arrival, unequal rounds at one level of
   one resource, a round of several flows at the arrival's level, a
   value the slack could decide. The caveat of order 4 applies.

``_SHARE_SLACK`` keeps a bottleneck from changing on float noise: a
resource replaces the running best only if its share is smaller by more
than the slack. For any share above 16 KiB/s the slack is under half an
ulp, ``best - _SHARE_SLACK == best``, and the sequential comparison *is*
"first strict minimum" — what ``shares.index(min(shares))`` computes.
The fill checks exactly that identity on the round's minimum (every
larger running best then satisfies it too) and otherwise runs the
sequential comparison for that round.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterable, Protocol

from repro.sim.resources import Resource

#: Strict-improvement slack when comparing bottleneck fair shares.
_SHARE_SLACK = 1e-12
_INF = float("inf")
#: Recompute epochs: one counter for every allocator (module docstring).
_epochs = itertools.count(1)
_by_rank = attrgetter("_rank")


class AllocatableFlow(Protocol):
    """Minimal flow interface the allocator needs; it alone writes the
    three slots after ``rate`` (module docstring)."""

    resources: tuple[Resource, ...]
    rate: float
    _unique: tuple[Resource, ...]
    _mark: int
    _rank: int


def _replay(
    cap: float, n: int, steps: list[tuple[float, int]], rate: float
) -> tuple[float, bool]:
    """One resource of an arrival's replay (order 6): ``cap`` and ``n``
    users, the other users' rounds ``steps`` ascending, the arrival frozen
    at ``rate`` elsewhere (infinite: not yet). Returns the first share at or
    below the next round's level, where the fill would bind that round,
    and False; or the share left once every round ran, and True."""
    for level, size in steps:
        if level >= rate:  # the arrival froze first
            cap, n, rate = cap - rate, n - 1, _INF
        share = cap / n if cap > 0.0 else 0.0
        if share <= level:
            return share, False
        cap, n = cap - level * size, n - size
    return (cap if cap > 0.0 else 0.0), True


def _tightest(resources: tuple[Resource, ...]) -> tuple[float, Resource | None]:
    """A lone flow's max-min rate and bottleneck: its first resource of
    least capacity (none: unbounded, frozen by nothing)."""
    rate, tightest = _INF, None
    for res in resources:
        if res.capacity < rate:
            rate, tightest = res.capacity, res
    return rate, tightest


def allocate_rates(flows: Iterable[AllocatableFlow]) -> None:
    """Assign max-min fair rates to ``flows`` in place (from scratch)."""
    allocator = RateAllocator()
    for flow in flows:
        allocator.add_flow(flow)
    allocator.mark_dirty()  # every flow, in the order given
    allocator.recompute()


class RateAllocator:
    """Incremental max-min allocator with a persistent contention graph.

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
        # The resource that froze each rated flow in the standing solution
        # (None: unbounded, or nothing froze it).
        self._bottleneck: dict[AllocatableFlow, Resource | None] = {}
        # What else the epoch did, for recompute's rules: rated flows that
        # left, as (deduplicated resources, rate, bottleneck at removal),
        # and whether anything but those and arrivals touched the graph.
        self._left: list[tuple[tuple[Resource, ...], float, Resource | None]] = []
        self._disturbed = False
        #: Progressive fills run; succession, inert departure (some leaver's
        #: resource still had users) and inert arrival epochs that needed none.
        self.fills = 0
        self.successions = 0
        self.inert = 0
        self.inert_arrivals = 0

    def __len__(self) -> int:
        return len(self._flow_resources)

    def add_flow(self, flow: AllocatableFlow) -> None:
        """Register ``flow``; its resources become dirty."""
        if flow in self._flow_resources:
            return
        # A flow listing a resource twice counts once against it (one share
        # of the pipe, not two): usage subtraction and user sets agree.
        flow._unique = unique = tuple(dict.fromkeys(flow.resources))
        flow._mark = 0
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
        bottleneck = self._bottleneck.pop(flow, None)
        if flow in self._fresh:  # came and went unrated inside the epoch
            del self._fresh[flow]
            self._disturbed = True
        else:
            self._left.append((unique, flow.rate, bottleneck))
        for res in unique:
            members = self._users.get(res)
            if members is not None:
                members.pop(flow, None)
                if not members:
                    del self._users[res]
            self._dirty[res] = None

    def mark_dirty(self, *resources: Resource) -> None:
        """Mark capacity-changed resources; no arguments marks everything."""
        self._disturbed = True
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

        Three epochs keep the standing solution and run no fill (module
        docstring, orders 4 to 6): in a *succession* each arrival inherits
        the rate and bottleneck of a leaver over the same resources, and
        only the arrivals are rewritten, in arrival order; an *inert*
        departure rewrites nothing, an *inert* arrival only itself. Two
        more close before any discovery, as its result is known:
        departures that left no users on the resources they dirtied
        rewrite nothing, and one arrival alone on each of its resources
        takes its tightest capacity.
        """
        users = self._users
        record = self._bottleneck
        if self._left and not self._disturbed:
            if not self._fresh:
                # Departures only (order 5); a flow without a record counts
                # as frozen by the resource. With no users left on any
                # dirtied resource there is nothing to re-rate either.
                touched = [res for res in self._dirty if res in users]
                if not any(
                    (record.get(flow) or res) is res for res in touched for flow in users[res]
                ):
                    self._left.clear()
                    self._dirty.clear()
                    if touched:
                        self.inert += 1
                    return []
            elif len(self._left) == len(self._fresh):
                # Order 4: pair each arrival, in arrival order, with the
                # first unpaired leaver over its (non-empty) resources.
                leavers: dict[tuple[Resource, ...], list[tuple[float, Resource | None]]] = {}
                for resources, rate, bottleneck in self._left:
                    if resources:
                        leavers.setdefault(resources, []).append((rate, bottleneck))
                heirs = []
                for flow in self._fresh:
                    standing = leavers.get(flow._unique)
                    if not standing:
                        break
                    heirs.append((flow, *standing.pop(0)))
                else:
                    self._left.clear()
                    self.successions += 1
                    return self._stand(heirs, on_touch)
        elif len(self._fresh) == 1 and not self._disturbed:
            (flow,) = self._fresh
            resources = flow._unique
            for res in resources:
                if len(users[res]) != 1:
                    break
            else:  # a lone flow
                return self._stand([(flow, *_tightest(resources))], on_touch)
            if (frozen := self._replay_arrival(flow)) is not None:
                self.inert_arrivals += 1
                return self._stand([(flow, *frozen)], on_touch)
        self._left.clear()
        self._disturbed = False
        # Discovery stamps the epoch on what it meets: a flow's rank is its
        # discovery index, a resource takes the next slot when a discovered
        # flow's tuple first names it (order 1). Unshared flows rate apart.
        epoch = next(_epochs)
        order: list[AllocatableFlow] = []
        unshared: list[AllocatableFlow] = []
        resources_by_slot: list[Resource] = []
        if self._all_dirty:
            for flow in self._flow_resources:
                if not flow._unique:
                    unshared.append(flow)
                    continue
                flow._mark, flow._rank = epoch, len(order)
                order.append(flow)
                for res in flow._unique:
                    if res._mark != epoch:
                        res._mark, res._slot = epoch, len(resources_by_slot)
                        resources_by_slot.append(res)
        else:
            stack = [res for res in self._dirty if res in users]
            if not stack and not self._fresh:
                # A departure emptied every resource it dirtied: nothing
                # is left to re-rate.
                self._dirty.clear()
                return []
            while stack:
                res = stack.pop()
                if res._seen == epoch:
                    continue
                res._seen = epoch
                for flow in users[res]:
                    if flow._mark != epoch:
                        flow._mark, flow._rank = epoch, len(order)
                        order.append(flow)
                        for other in flow._unique:
                            if other._mark != epoch:
                                other._mark, other._slot = epoch, len(resources_by_slot)
                                resources_by_slot.append(other)
                            if other._seen != epoch:
                                stack.append(other)
            # Resource-less fresh flows sit in no user set; they still
            # need their (unbounded) rate assigned once.
            unshared = [flow for flow in self._fresh if not flow._unique]
        self._dirty.clear()
        self._all_dirty = False
        self._fresh.clear()
        if len(order) + len(unshared) == 1:
            # Fast path for the common case of an uncontended component:
            # a lone flow's max-min rate is its tightest capacity.
            unshared, order = [*order, *unshared], []
        changed: list[AllocatableFlow] = []
        for flow in unshared:  # before any fill round
            rate, record[flow] = _tightest(flow._unique)
            if rate != flow.rate:
                if on_touch is not None:
                    on_touch(flow)
                flow.rate = rate
                changed.append(flow)
        if order:
            self.fills += 1
            self._progressive_fill(epoch, len(order), resources_by_slot, on_touch, changed)
        return changed

    def _stand(self, heirs: list[tuple[AllocatableFlow, float, Resource | None]],
               on_touch: Callable[[AllocatableFlow], None] | None) -> list[AllocatableFlow]:
        """Close an epoch in which only its arrivals are rated: each of
        ``heirs`` is (arrival, rate, bottleneck), in arrival order."""
        self._dirty.clear()
        self._fresh.clear()
        changed = []
        for flow, rate, bottleneck in heirs:
            self._bottleneck[flow] = bottleneck
            if rate != flow.rate:  # as the fill leaves a 0 B/s arrival out
                if on_touch is not None:
                    on_touch(flow)
                flow.rate = rate
                changed.append(flow)
        return changed

    def _replay_arrival(self, flow: AllocatableFlow) -> tuple[float, Resource] | None:
        """Order 6: the fill's rate and bottleneck for ``flow``, the epoch's
        one arrival, if the fill would write nobody else; else None. Asked
        only for an arrival that shares some resource (a lone one is rated
        before)."""
        resources = flow._unique
        users, record = self._users, self._bottleneck
        # Each resource on its own, the arrival unfrozen (``acts``: the share
        # it leaves the arrival, and whether every round ran); the arrival
        # freezes on the least share, and the shared resources run again
        # with it frozen. A resource the arrival has alone leaves it the
        # whole capacity either way.
        plans = []  # per shared resource: index, (capacity, users, rounds ascending)
        acts = []
        for res in resources:
            capacity = res.capacity
            if not 0.0 < capacity < _INF:
                return None
            members = users[res]
            if len(members) == 1:
                acts.append((capacity, True))
                continue
            rounds: dict[tuple[float, Resource], int] = {}
            for other in members:
                if other is not flow:
                    frozen_by = record.get(other)
                    if frozen_by is None:
                        return None
                    key = other.rate, frozen_by
                    rounds[key] = rounds.get(key, 0) + 1
            steps = sorted([(level, size) for (level, _), size in rounds.items()])
            if len(set(steps)) != len(dict(steps)):
                return None  # rounds of unequal size at one level
            if steps[0][0] - _SHARE_SLACK != steps[0][0]:
                return None  # a level the slack could decide
            plan = capacity, len(members), steps
            plans.append((len(acts), plan))
            acts.append(_replay(*plan, _INF))
        rate, alone = min(acts)
        if not alone or rate - _SHARE_SLACK != rate or [s for s, _ in acts].count(rate) > 1:
            return None
        if any(level == rate and size != 1 for _, (*_, steps) in plans for level, size in steps):
            return None  # tied with a round of several flows
        at = acts.index((rate, True))
        if all(_replay(*plan, rate)[1] for i, plan in plans if i != at):
            return rate, resources[at]
        return None

    def _progressive_fill(
        self,
        epoch: int,
        unfrozen: int,
        resources_by_slot: list[Resource],
        on_touch: Callable[[AllocatableFlow], None] | None,
        changed: list[AllocatableFlow],
    ) -> None:
        """Max-min rates for a *closed* set of flows, written in freeze order.

        The set is the ``unfrozen`` flows discovery marked with ``epoch``;
        every registered user of a resource a marked flow crosses is
        marked. ``resources_by_slot`` lists those resources by ``_slot``.
        Repeatedly finds the bottleneck resource (smallest fair share among
        its unfrozen flows), freezes its flows at that share, subtracts
        their usage everywhere, and continues. The round that freezes a
        flow clears its mark, records its bottleneck and, if the rate
        moved, calls ``on_touch``, writes the rate and appends the flow to
        ``changed``. See the module docstring for the order and arithmetic
        contract.
        """
        users = self._users
        record = self._bottleneck
        remaining = [res.capacity for res in resources_by_slot]
        count = [len(users[res]) for res in resources_by_slot]
        # Clamp float drift: repeated subtraction can push a fully used
        # resource a hair below zero, which must not turn into a negative
        # share. A resource whose users are all frozen leaves the scan by
        # taking an infinite share.
        shares = [cap / n if cap > 0.0 else 0.0 for cap, n in zip(remaining, count)]

        while unfrozen:
            share = min(shares)
            if share - _SHARE_SLACK == share:
                bottleneck = shares.index(share)
            else:
                # The slack can decide this round (tiny or zero shares):
                # compare sequentially, as the contract is written.
                bottleneck = -1
                share = _INF
                for i, candidate in enumerate(shares):
                    if candidate < share - _SHARE_SLACK:
                        share = candidate
                        bottleneck = i
            if share == _INF:
                # Only infinite-capacity resources are left: the rest are
                # unbounded, frozen by nothing.
                frozen_by = None
                members = list(dict.fromkeys(
                    flow for i, res in enumerate(resources_by_slot) if count[i]
                    for flow in sorted([f for f in users[res] if f._mark == epoch], key=_by_rank)
                ))
            else:
                frozen_by = resources_by_slot[bottleneck]
                members = [flow for flow in users[frozen_by] if flow._mark == epoch]
                members.sort(key=_by_rank)
                count[bottleneck] = 0
                shares[bottleneck] = _INF
            unfrozen -= len(members)
            crossed: dict[int, int] = {}
            for flow in members:
                flow._mark = 0
                record[flow] = frozen_by
                if share != flow.rate:
                    if on_touch is not None:
                        on_touch(flow)
                    flow.rate = share
                    changed.append(flow)
                for res in flow._unique:
                    i = res._slot
                    crossed[i] = crossed.get(i, 0) + 1
            if frozen_by is None:
                return
            del crossed[bottleneck]
            for i, n_frozen in crossed.items():
                remaining[i] = cap = remaining[i] - share * n_frozen
                count[i] = n = count[i] - n_frozen
                shares[i] = (cap / n if cap > 0.0 else 0.0) if n else _INF
