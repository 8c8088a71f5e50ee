"""Randomized equivalence: incremental allocator vs from-scratch oracle.

The incremental :class:`RateAllocator` must produce rates identical (to
1e-9) to a full :func:`allocate_rates` pass after *every* mutation of a
randomized sequence — flow arrivals, flow departures, and capacity
changes — across hundreds of seeds. A second battery drives two complete
:class:`FlowScheduler` simulations (one per allocator) through the same
random scenario and compares completion times.

The count-based fill carries a stronger contract: the twin batteries
below (their ids date from the retired columnar kernel, which was held
to the same oracle) keep :class:`RateAllocator` to *exact* (``==``, not
approx) equality against :class:`tests.oracles.ReferenceRateAllocator`,
the dict-of-dicts allocator it replaced — same mutation stream,
bit-identical rates, changed-flow order and completion timelines.

Those batteries recompute after *each* mutation. The coalesced batteries
at the end put 1-4 mutations in an epoch, as ``FlowScheduler`` does, and
hold the two kinds of epoch that answer without a fill to their own
contracts: a *succession* — rated departures and as many arrivals,
pairing one to one over the same resources, nothing else (one slice
boundary, or several at one instant) — where each arrival inherits its
leaver's rate, the arrivals are written in arrival order and nobody else
is, and an *inert departure* — rated flows
left, nothing else, and no flow left on their resources was frozen by
one of them — where nobody is written, and an *inert arrival* — one
arrival, nothing else, binding nobody — where only the arrival is
written; either way the result is the from-scratch optimum.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Flow,
    FlowScheduler,
    RateAllocator,
    Resource,
    Simulator,
    allocate_rates,
)
from tests.oracles import (
    FromScratchAllocator,
    ReferenceRateAllocator,
    bottleneck_violations,
    max_min_violations,
)

NUM_SEEDS = 220
MUTATIONS_PER_SEED = 12


class StubFlow:
    """Bare allocator client: resources, a rate slot and the slots the
    allocator stamps."""

    __slots__ = ("name", "resources", "rate", "_unique", "_mark", "_rank")

    def __init__(self, name, resources):
        self.name = name
        self.resources = tuple(resources)
        self.rate = 0.0

    def __repr__(self):  # pragma: no cover - assertion messages only
        return f"<StubFlow {self.name} rate={self.rate}>"


def _random_mutation(rng, alloc, live, resources, next_id):
    """Apply one random mutation; returns the updated next flow id."""
    roll = rng.random()
    if roll < 0.5 or not live:
        # Arrival crossing 0-3 random resources (0 => unbounded flow;
        # duplicates allowed on purpose to exercise dedup).
        count = int(rng.integers(0, 4))
        chosen = [resources[int(i)] for i in rng.integers(0, len(resources), count)]
        flow = StubFlow(f"f{next_id}", chosen)
        live.append(flow)
        alloc.add_flow(flow)
        return next_id + 1
    if roll < 0.8:
        flow = live.pop(int(rng.integers(0, len(live))))
        alloc.remove_flow(flow)
        return next_id
    res = resources[int(rng.integers(0, len(resources)))]
    res.set_capacity(float(rng.integers(1, 1000)))
    alloc.mark_dirty(res)
    return next_id


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_incremental_matches_from_scratch(seed):
    rng = np.random.default_rng(seed)
    resources = [
        Resource(f"r{i}", float(rng.integers(10, 1000)))
        for i in range(int(rng.integers(2, 8)))
    ]
    alloc = RateAllocator()
    live = []
    next_id = 0
    for _ in range(MUTATIONS_PER_SEED):
        next_id = _random_mutation(rng, alloc, live, resources, next_id)
        alloc.recompute()
        incremental = {flow: flow.rate for flow in live}
        allocate_rates(live)  # overwrites every rate from scratch
        for flow in live:
            assert incremental[flow] == pytest.approx(flow.rate, abs=1e-9), (
                f"seed={seed} flow={flow.name}: "
                f"incremental={incremental[flow]} scratch={flow.rate}"
            )
            flow.rate = incremental[flow]  # restore for the next round


def _twin_mutation(rng, d_alloc, c_alloc, d_live, c_live, resources, next_id):
    """Apply one random mutation identically to the reference (``d_``)
    and current (``c_``) sides.

    Twin StubFlows (one per allocator) share the same Resource objects,
    so ``set_capacity`` is visible to both.
    """
    roll = rng.random()
    if roll < 0.5 or not d_live:
        count = int(rng.integers(0, 4))
        picks = rng.integers(0, len(resources), count)
        chosen = tuple(resources[int(i)] for i in picks)
        d_flow = StubFlow(f"f{next_id}", chosen)
        c_flow = StubFlow(f"f{next_id}", chosen)
        d_live.append(d_flow)
        c_live.append(c_flow)
        d_alloc.add_flow(d_flow)
        c_alloc.add_flow(c_flow)
        return next_id + 1
    if roll < 0.8:
        idx = int(rng.integers(0, len(d_live)))
        d_alloc.remove_flow(d_live.pop(idx))
        c_alloc.remove_flow(c_live.pop(idx))
        return next_id
    res = resources[int(rng.integers(0, len(resources)))]
    res.set_capacity(float(rng.integers(1, 1000)))
    d_alloc.mark_dirty(res)
    c_alloc.mark_dirty(res)
    return next_id


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_columnar_matches_dict_bit_for_bit(seed):
    """The count-based fill reproduces the reference allocator *exactly*.

    After every mutation both sides recompute; the changed-flow lists
    must match name-for-name and every live rate must be ``==`` — no
    tolerance — across all 220 seeds. This is the gate that lets the
    fill be rewritten without perturbing a single published number.
    """
    rng = np.random.default_rng(seed)
    resources = [
        Resource(f"r{i}", float(rng.integers(10, 1000)))
        for i in range(int(rng.integers(2, 8)))
    ]
    d_alloc = ReferenceRateAllocator()
    c_alloc = RateAllocator()
    d_live, c_live = [], []
    next_id = 0
    for _ in range(MUTATIONS_PER_SEED):
        next_id = _twin_mutation(
            rng, d_alloc, c_alloc, d_live, c_live, resources, next_id
        )
        d_changed = d_alloc.recompute()
        c_changed = c_alloc.recompute()
        assert [f.name for f in d_changed] == [f.name for f in c_changed], (
            f"seed={seed}: touched flows diverge"
        )
        for d, c in zip(d_live, c_live):
            assert d.rate == c.rate, (
                f"seed={seed} flow={d.name}: reference={d.rate!r} current={c.rate!r}"
            )


class _Side:
    """One allocator over some of a shared pool of flows, with its own
    reference allocator over twin flows and its own view of the rates
    (the pool's ``rate`` slots hold whichever allocator wrote last)."""

    def __init__(self):
        self.cur, self.ref = RateAllocator(), ReferenceRateAllocator()
        self.live = {}  # shared flow -> its twin on the reference side
        self.rates = {}

    def act(self, rng, pool, resources, seed):
        """Restore this side's rates, apply one mutation, recompute both
        allocators and check them against each other."""
        for flow, rate in self.rates.items():
            flow.rate = rate
        roll = rng.random()
        joinable = [flow for flow in pool if flow not in self.live]
        if roll < 0.5 or not self.live:
            if joinable and rng.random() < 0.5:  # a flow the other side rates too
                flow = joinable[int(rng.integers(0, len(joinable)))]
            else:
                count = int(rng.integers(0, 4))
                picks = rng.integers(0, len(resources), count)
                flow = StubFlow(f"f{len(pool)}", [resources[int(i)] for i in picks])
                pool.append(flow)
            self.live[flow] = twin = StubFlow(flow.name, flow.resources)
            twin.rate = flow.rate  # as it stands in the shared slot
            self.cur.add_flow(flow)
            self.ref.add_flow(twin)
        elif roll < 0.85:
            flow = list(self.live)[int(rng.integers(0, len(self.live)))]
            self.cur.remove_flow(flow)
            self.ref.remove_flow(self.live.pop(flow))
        else:
            self.cur.mark_dirty()
            self.ref.mark_dirty()
        cur_changed, ref_changed = self.cur.recompute(), self.ref.recompute()
        assert [f.name for f in cur_changed] == [f.name for f in ref_changed], seed
        for flow, twin in self.live.items():
            assert flow.rate == twin.rate, (seed, flow.name, flow.rate, twin.rate)
        self.rates = {flow: flow.rate for flow in self.live}


@pytest.mark.parametrize("seed", range(40))
def test_allocators_sharing_flows_keep_their_marks_apart(seed):
    """Two allocators and :func:`allocate_rates` passes rate the same flow
    and resource objects, recomputing in interleaved order: the epoch
    marks each leaves on them must never read as another's. Every
    allocator stays ``==`` to a reference allocator over twin flows, and
    every pass to a from-scratch reference over the union."""
    rng = np.random.default_rng(seed)
    resources = [
        Resource(f"r{i}", float(rng.integers(10, 1000)))
        for i in range(int(rng.integers(2, 8)))
    ]
    pool, sides = [], [_Side(), _Side()]
    for _ in range(3 * MUTATIONS_PER_SEED):
        side = sides[int(rng.integers(0, 2))]
        if rng.random() < 0.2:  # a capacity change every side sees
            res = resources[int(rng.integers(0, len(resources)))]
            res.set_capacity(float(rng.integers(1, 1000)))
            for other in sides:
                other.cur.mark_dirty(res)
                other.ref.mark_dirty(res)
        side.act(rng, pool, resources, seed)
        union = list(dict.fromkeys(flow for other in sides for flow in other.live))
        allocate_rates(union)
        scratch = ReferenceRateAllocator()
        twins = [StubFlow(flow.name, flow.resources) for flow in union]
        for twin in twins:
            scratch.add_flow(twin)
        scratch.mark_dirty()
        scratch.recompute()
        assert [f.rate for f in union] == [t.rate for t in twins], seed


def _run_scenario(seed, make_scheduler):
    """One random flow workload on a scheduler; returns completions and
    final per-resource byte totals."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    sched = make_scheduler(sim)
    resources = [Resource(f"r{i}", float(rng.integers(50, 500))) for i in range(5)]
    flows = []
    for i in range(25):
        count = int(rng.integers(1, 3))
        chosen = rng.choice(len(resources), size=count, replace=False)
        flow = Flow(f"f{i}", float(rng.integers(50, 800)),
                    tuple(resources[int(j)] for j in chosen))
        flows.append(flow)
        start_at = float(rng.uniform(0, 5))
        sim.schedule(start_at, lambda f=flow: sched.start_flow(f))
        if rng.random() < 0.2:
            # Cancel strictly after the start (cancelling an already
            # completed flow is a no-op, which is fine here).
            sim.schedule(
                start_at + float(rng.uniform(0.01, 6)),
                lambda f=flow: sched.cancel_flow(f),
            )
    throttled = resources[0]
    sim.schedule(3.0, lambda: (throttled.set_capacity(30.0),
                               sched.capacity_changed(throttled)))
    sim.run()
    return (
        [(f.name, f.cancelled, f.completed_at) for f in flows],
        [(r.name, r.total_bytes) for r in resources],
    )


@pytest.mark.parametrize("seed", range(30))
def test_scheduler_end_to_end_equivalence(seed):
    """Identical completion timelines under both allocators."""
    fast, _ = _run_scenario(
        seed, lambda sim: FlowScheduler(sim, allocator=RateAllocator())
    )
    oracle, _ = _run_scenario(
        seed, lambda sim: FlowScheduler(sim, allocator=FromScratchAllocator())
    )
    for (name, cancelled, done_at), (oname, ocancelled, odone_at) in zip(fast, oracle):
        assert name == oname
        assert cancelled == ocancelled
        if odone_at is None:
            assert done_at is None
        else:
            assert done_at == pytest.approx(odone_at, abs=1e-6)


@pytest.mark.parametrize("seed", range(30))
def test_columnar_scheduler_end_to_end_exact(seed):
    """A scheduler on the current allocator replays one on the reference
    allocator bit-for-bit.

    The full (name, cancelled, completed_at) timeline must be *exactly*
    equal — completion instants included — and so must the per-resource
    byte totals: same rates in the same order means the same settles.
    """
    ref_flows, ref_bytes = _run_scenario(
        seed, lambda sim: FlowScheduler(sim, allocator=ReferenceRateAllocator())
    )
    cur_flows, cur_bytes = _run_scenario(
        seed, lambda sim: FlowScheduler(sim, allocator=RateAllocator())
    )
    assert ref_flows == cur_flows
    assert ref_bytes == cur_bytes


def test_remove_unknown_flow_is_noop():
    alloc = RateAllocator()
    flow = StubFlow("ghost", (Resource("r", 10.0),))
    alloc.remove_flow(flow)  # never added
    assert len(alloc) == 0
    assert alloc.recompute() == []


def test_double_add_is_idempotent():
    res = Resource("r", 100.0)
    alloc = RateAllocator()
    flow = StubFlow("f", (res,))
    alloc.add_flow(flow)
    alloc.add_flow(flow)
    assert len(alloc) == 1
    alloc.recompute()
    assert flow.rate == pytest.approx(100.0)


def test_untouched_component_keeps_rates():
    """Flows outside the dirty component must not be re-rated."""
    ra, rb = Resource("a", 100.0), Resource("b", 60.0)
    fa, fb = StubFlow("fa", (ra,)), StubFlow("fb", (rb,))
    alloc = RateAllocator()
    alloc.add_flow(fa)
    alloc.add_flow(fb)
    alloc.recompute()
    assert (fa.rate, fb.rate) == (pytest.approx(100.0), pytest.approx(60.0))
    # Poison fb's rate, then mutate only fa's component: fb must keep the
    # poisoned value, proving it sat outside the recomputed component.
    fb.rate = -1.0
    fa2 = StubFlow("fa2", (ra,))
    alloc.add_flow(fa2)
    touched = alloc.recompute()
    assert set(touched) == {fa, fa2}
    assert fa.rate == pytest.approx(50.0)
    assert fa2.rate == pytest.approx(50.0)
    assert fb.rate == -1.0


# -- the count-based fill against the reference, where floats are hostile --

_INDEX = st.integers(min_value=0, max_value=10**6)


@st.composite
def _hostile_capacities(draw):
    """2-7 capacities drawn log-uniformly from 1e-9...1e12 B/s, then tied:
    some copy an earlier one exactly, some sit within ``_SHARE_SLACK`` of
    it, some are a small multiple (so shares tie across user counts)."""
    exponents = draw(st.lists(st.floats(-9.0, 12.0), min_size=2, max_size=7))
    caps = [10.0**e for e in exponents]
    for i in range(1, len(caps)):
        kind = draw(st.sampled_from(("free", "free", "equal", "slack", "multiple")))
        other = caps[draw(st.integers(0, i - 1))]
        if kind == "equal":
            caps[i] = other
        elif kind == "slack":
            caps[i] = other + draw(st.floats(-2e-12, 2e-12))
        elif kind == "multiple":
            caps[i] = other * draw(st.integers(2, 4))
    return caps


_FILL_MUTATIONS = st.one_of(
    # Arrival over 0-3 resources, duplicates allowed, 0 => unbounded flow.
    st.tuples(st.just("add"), st.lists(_INDEX, max_size=3)),
    st.tuples(st.just("add"), st.lists(_INDEX, min_size=1, max_size=3)),
    st.tuples(st.just("remove"), _INDEX),
    # Retune to another resource's capacity, scaled: fresh exact ties.
    st.tuples(st.just("retune"), st.tuples(_INDEX, _INDEX, st.sampled_from((0.5, 1, 2, 3)))),
    st.tuples(st.just("all_dirty"), st.none()),
)


def _assert_same_recompute(ref, cur, ref_live, cur_live):
    ref_changed = ref.recompute()
    cur_changed = cur.recompute()
    assert [f.name for f in cur_changed] == [f.name for f in ref_changed]
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]


@settings(max_examples=400, deadline=None)
@given(_hostile_capacities(), st.lists(_FILL_MUTATIONS, min_size=1, max_size=30))
# An inert departure (removing f5 leaves f4 on r1, frozen by r0) keeps the
# last fill's ties, where the reference re-fills r1's component afresh.
@example(
    caps=[1.0] * 3,
    mutations=[("add", [])] * 3 + [
        ("add", [32, 0]), ("add", [0, 1]), ("add", [1]), ("add", [290]),
        ("add", [5054]), ("remove", 0), ("add", [0]), ("remove", 4),
    ],
)
def test_fill_matches_reference_on_hostile_floats(caps, mutations):
    """``RateAllocator`` == ``ReferenceRateAllocator`` (changed-flow order
    and ``==`` rates after every mutation) where the fast bottleneck
    choice is *not* trivially right: shares far below 16 KiB/s, where
    ``_SHARE_SLACK`` is not vacuous and the fill must compare
    sequentially; exact and within-slack ties; the all-dirty path;
    duplicate resources and resource-less flows. A departure the inert
    rule takes is held to its contract instead (order 5: it keeps the
    last fill's ties), and both twins then stand on ``cur``'s rates."""
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(caps)]
    ref, cur = ReferenceRateAllocator(), RateAllocator()
    ref_live, cur_live = [], []
    for step, (kind, arg) in enumerate(mutations):
        leaver = None
        if kind == "add":
            chosen = tuple(resources[i % len(resources)] for i in arg)
            for alloc, live in ((ref, ref_live), (cur, cur_live)):
                flow = StubFlow(f"f{step}", chosen)
                live.append(flow)
                alloc.add_flow(flow)
        elif kind == "remove":
            if ref_live:
                idx = arg % len(ref_live)
                ref.remove_flow(ref_live.pop(idx))
                leaver = cur_live.pop(idx)
                cur.remove_flow(leaver)
        elif kind == "retune":
            target, source, factor = arg
            res = resources[target % len(resources)]
            res.set_capacity(resources[source % len(resources)].capacity * factor)
            ref.mark_dirty(res)
            cur.mark_dirty(res)
        else:
            ref.mark_dirty()
            cur.mark_dirty()
        if leaver is not None and _inert_by_the_rule(cur, [leaver]):
            _assert_inert_contract(cur, cur_live)
            ref.recompute()
            for r, c in zip(ref_live, cur_live):
                r.rate = c.rate
        else:
            _assert_same_recompute(ref, cur, ref_live, cur_live)
    # And from scratch, in list order, through the public helper.
    for flow in cur_live:
        flow.rate = -1.0
    allocate_rates(cur_live)
    ref.mark_dirty()
    for flow in ref_live:
        flow.rate = -1.0
    ref.recompute()
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]


def _build_twins(capacities, paths):
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(capacities)]
    ref, cur = ReferenceRateAllocator(), RateAllocator()
    ref_live, cur_live = [], []
    for n, path in enumerate(paths):
        chosen = tuple(resources[i] for i in path)
        for alloc, live in ((ref, ref_live), (cur, cur_live)):
            flow = StubFlow(f"f{n}", chosen)
            live.append(flow)
            alloc.add_flow(flow)
    return ref, cur, ref_live, cur_live


@pytest.mark.parametrize(
    "capacities, paths",
    [
        # Tied bottlenecks that share a flow: scan order decides which of
        # 1e8/3 and (1e8 - 1e8/3)/2 the flows on r1 get.
        ((1e8, 1e8), [(0,), (0,), (0, 1), (1,), (1,)]),
        ((1e8, 1e8), [(1,), (1,), (1, 0), (0,), (0,)]),
        # Within-slack tie below 16 KiB/s: the *first* resource must win
        # although the second one's share is the arithmetic minimum.
        ((3.0, 3.0 - 5e-13), [(0,), (1,), (0, 1)]),
        ((3.0 - 5e-13, 3.0), [(0,), (1,), (0, 1)]),
        # Just past the slack: now the second one is a strict improvement.
        ((3.0, 3.0 - 5e-12), [(0,), (1,), (0, 1)]),
        # Tiny capacities: float drift clamps to a zero share.
        ((0.1 + 0.2, 1e-9, 2e-9, 3e-9), [(0, 1), (0, 2), (0, 3), (0, 1), (0,)]),
        # Duplicate membership and resource-less flows.
        ((100.0, 40.0), [(0, 0), (0,), (), (1, 0, 1), ()]),
        # An unbounded resource freezes nobody until nothing else is left.
        ((float("inf"), 50.0), [(0,), (0, 1), (0,)]),
        ((float("inf"), float("inf")), [(0,), (0, 1), (1,)]),
    ],
    ids=[
        "tied-bottlenecks-r0-first", "tied-bottlenecks-r1-first",
        "within-slack-second-smaller", "within-slack-first-smaller", "past-slack",
        "tiny-capacities", "duplicates-and-resourceless",
        "unbounded-resource", "only-unbounded-resources",
    ],
)
def test_fill_matches_reference_on_named_cases(capacities, paths):
    ref, cur, ref_live, cur_live = _build_twins(capacities, paths)
    _assert_same_recompute(ref, cur, ref_live, cur_live)  # dirty-component path
    for flow in ref_live + cur_live:
        flow.rate = -1.0
    ref.mark_dirty()
    cur.mark_dirty()
    _assert_same_recompute(ref, cur, ref_live, cur_live)  # all-dirty path
    assert all(flow.rate >= 0.0 for flow in cur_live)


# -- coalesced epochs: several mutations, one recompute --------------------

def _paired(leavers, arrivals):
    """Each of ``arrivals``, in arrival order, with the rate of the first
    leaver not yet taken over the same non-empty deduplicated resources:
    ``[(leaver's rate, arrival), ...]``, or None unless they pair one to
    one."""
    unpaired = list(leavers)
    pairs = []
    for arrival in arrivals:
        path = tuple(dict.fromkeys(arrival.resources))
        match = next(
            (f for f in unpaired if path and tuple(dict.fromkeys(f.resources)) == path), None
        )
        if match is None:
            return None
        unpaired.remove(match)
        pairs.append((match.rate, arrival))
    return None if unpaired else pairs


def _coalesced_epoch(rng, ref, cur, ref_live, cur_live, resources, next_id,
                     departures=False, arrivals=False):
    """Apply 1-4 twin mutations without recomputing.

    Beside the arrivals, departures and capacity changes of
    ``_twin_mutation`` a mutation may be a *slice boundary* — a live flow
    leaves and a new one arrives over its tuple, in either order — which
    is what over half of this battery's arrivals are, so successions do
    occur. A fifth of the other epochs are instead 2-3 slice boundaries
    at one instant and nothing else (a later one may pick an earlier
    one's arrival, which then came and went unrated). With ``departures``
    half the epochs are instead 1-2 departures and nothing else; with
    ``arrivals`` half are instead one arrival over 1-2 shared resources
    and one of its own (a request's disk), and capacities are in MB/s.
    Returns ``(next_id, succession, leavers, arrival)``; ``succession``
    is the :func:`_paired` list when the epoch was, by this function's
    own bookkeeping (not the allocator's), departures of flows rated
    before the epoch and as many arrivals, pairing one to one over
    non-empty deduplicated resources, and nothing else — else ``None``;
    ``leavers`` lists the cur-side flows that left when the epoch did
    nothing but remove rated flows — else ``None``; ``arrival`` is the
    cur-side flow when the epoch was one arrival and nothing else — else
    ``None``.
    """
    rated = set(cur_live)  # live before the epoch, hence rated
    left, arrived, other = [], [], False

    def arrive(chosen):
        nonlocal next_id
        for alloc, live in ((ref, ref_live), (cur, cur_live)):
            flow = StubFlow(f"f{next_id}", chosen)
            live.append(flow)
            alloc.add_flow(flow)
        arrived.append(cur_live[-1])
        next_id += 1

    def depart(idx):
        nonlocal other
        ref.remove_flow(ref_live.pop(idx))
        flow = cur_live.pop(idx)
        cur.remove_flow(flow)
        if flow in rated:
            left.append(flow)
        else:  # arrived and left inside the epoch
            arrived.remove(flow)
            other = True

    def boundary():
        idx = int(rng.integers(0, len(ref_live)))
        chosen = cur_live[idx].resources
        if rng.random() < 0.5:
            depart(idx)
            arrive(chosen)
        else:
            arrive(chosen)
            depart(idx)

    def mutate():
        nonlocal other
        roll = rng.random()
        if roll < 0.35 and ref_live:
            boundary()
        elif roll < 0.6 or not ref_live:
            picks = rng.integers(0, len(resources), int(rng.integers(0, 4)))
            arrive(tuple(resources[int(i)] for i in picks))
        elif roll < 0.85:
            depart(int(rng.integers(0, len(ref_live))))
        else:
            res = resources[int(rng.integers(0, len(resources)))]
            res.set_capacity(float(rng.integers(1, 1000)) * (_MB if arrivals else 1.0))
            ref.mark_dirty(res)
            cur.mark_dirty(res)
            other = True

    if departures and ref_live and rng.random() < 0.5:
        for _ in range(min(len(ref_live), int(rng.integers(1, 3)))):
            depart(int(rng.integers(0, len(ref_live))))
    elif arrivals and rng.random() < 0.5:
        arrive(_with_own_resource(rng, resources, next_id))
    elif len(ref_live) >= 2 and rng.random() < 0.2:
        for _ in range(int(rng.integers(2, 4))):
            boundary()
    else:
        for _ in range(int(rng.integers(1, 5))):
            mutate()
    leavers = left if left and not arrived and not other else None
    arrival = arrived[0] if len(arrived) == 1 and not left and not other else None
    succession = _paired(left, arrived) if left and not other else None
    if succession is not None:
        return next_id, succession, None, None
    return next_id, None, leavers, arrival


def _assert_scratch_optimum(cur_live):
    """What stands on ``cur_live`` is *the* optimum of the graph: a
    from-scratch fill agrees within 1e-9 (and leaves every rate as it
    found it)."""
    standing = [flow.rate for flow in cur_live]
    scratch = FromScratchAllocator()
    for flow in cur_live:
        scratch.add_flow(flow)
    scratch.recompute()
    for flow, rate in zip(cur_live, standing):
        assert rate == pytest.approx(flow.rate, abs=1e-9), flow.name
        flow.rate = rate


def _assert_succession_contract(cur, cur_live, pairs):
    """The epoch pending on ``cur`` is a succession of ``pairs``, each
    (leaver's rate, arrival) in arrival order: recompute it and hold it to
    the contract. Every bystander's rate is poisoned first, so a fill that
    ran anyway would be caught rewriting it."""
    arrivals = [arrival for _, arrival in pairs]
    standing = {flow: flow.rate for flow in cur_live if flow not in arrivals}
    for flow in standing:
        flow.rate = -1.0
    fills, successions = cur.fills, cur.successions
    touched = []
    changed = cur.recompute(on_touch=touched.append)
    assert (cur.fills, cur.successions) == (fills, successions + 1)
    assert changed == touched == arrivals  # each settled once, in arrival order
    assert [arrival.rate for arrival in arrivals] == [rate for rate, _ in pairs]
    assert all(flow.rate == -1.0 for flow in standing), "a bystander was written"
    for flow, rate in standing.items():
        flow.rate = rate
    _assert_scratch_optimum(cur_live)


def _inert_by_the_rule(cur, leavers):
    """The inert-departure rule, read off the records ``cur`` holds once
    ``leavers`` are gone: some leaver's resource still has users, and
    none of them is recorded as frozen by it (no record counts as one)."""
    touched = {res for flow in leavers for res in flow.resources if res in cur._users}
    return bool(touched) and all(
        cur._bottleneck.get(user) not in (None, res)
        for res in touched
        for user in cur._users[res]
    )


def _assert_inert_contract(cur, cur_live):
    """The departure-only epoch pending on ``cur`` is inert: recompute it,
    with every rate poisoned, and find nothing written and no fill run;
    what stood before is still the from-scratch optimum."""
    standing = {flow: flow.rate for flow in cur_live}
    for flow in standing:
        flow.rate = -1.0
    fills, inert = cur.fills, cur.inert
    touched = []
    assert cur.recompute(on_touch=touched.append) == [] == touched
    assert (cur.fills, cur.inert) == (fills, inert + 1)
    assert all(flow.rate == -1.0 for flow in standing), "a bystander was written"
    for flow, rate in standing.items():
        flow.rate = rate
    _assert_scratch_optimum(cur_live)


def _arrival_may_bind_nobody(cur, arrival):
    """The preconditions of the inert-arrival rule, read off the records
    ``cur`` holds: some resource of ``arrival`` has another user, all have
    finite positive capacity, and every other user is recorded as frozen
    by a resource ``arrival`` does not cross. Necessary, not sufficient:
    the replay may still leave the epoch to the fill."""
    path = set(arrival.resources)
    others = [user for res in path for user in cur._users[res] if user is not arrival]
    return bool(others) and all(0.0 < res.capacity < float("inf") for res in path) and all(
        cur._bottleneck.get(user) not in path | {None} for user in others
    )


class _Poisoned(float):
    """A bystander's rate, marked: the replay reads the value, and any
    write, even of an equal value, replaces the mark."""


def _assert_inert_arrival_contract(ref, cur, ref_live, cur_live, arrival):
    """The one-arrival epoch pending on both twins binds nobody: ``cur``
    runs no fill, settles and writes the arrival alone (every bystander is
    poisoned first — with its own value, which the replay reads) at the
    rate the reference fill gives its twin; what stands is a certified
    max-min optimum, within 1e-12 of the reference fill's answer."""
    assert _arrival_may_bind_nobody(cur, arrival)
    ref.recompute()
    (want,) = [flow.rate for flow in ref_live if flow.name == arrival.name]
    standing = [flow for flow in cur_live if flow is not arrival]
    for flow in standing:
        flow.rate = _Poisoned(flow.rate)
    fills, inert_arrivals = cur.fills, cur.inert_arrivals
    touched = []
    assert cur.recompute(on_touch=touched.append) == [arrival] == touched
    assert (cur.fills, cur.inert_arrivals) == (fills, inert_arrivals + 1)
    assert all(type(flow.rate) is _Poisoned for flow in standing), "a bystander was written"
    for flow in standing:
        flow.rate = float(flow.rate)
    assert arrival.rate == want
    assert not max_min_violations(cur_live)
    for r, c in zip(ref_live, cur_live):
        assert c.rate == pytest.approx(r.rate, rel=1e-12), c.name


#: The arrivals battery's unit: a binary MB, so its shares sit where the
#: inert-arrival rule works (above 16 KiB/s, where the slack is vacuous).
_MB = float(2**20)


def _with_own_resource(rng, resources, next_id):
    """1-2 of ``resources`` plus a fresh one only this flow crosses, of
    1-299 MB/s: the flow is often frozen by its own, and leaves slack on
    the shared ones."""
    picks = rng.integers(0, len(resources), int(rng.integers(1, 3)))
    own = Resource(f"own{next_id}", float(rng.integers(1, 300)) * _MB)
    return tuple(resources[int(i)] for i in picks) + (own,)


def _run_coalesced(seed, departures=False, arrivals=False):
    """One seed of the coalesced twin battery; returns (epochs,
    successions, successions of several pairs, inert epochs, inert
    arrivals). With ``departures`` the
    graph is larger (4-9 resources, 8-16 standing flows over 2-3 of them,
    so that a leaver's resources often carry flows frozen elsewhere) and
    half the epochs are departures only. With ``arrivals`` it is as large,
    in MB/s, every standing flow also crosses a resource of its own, and
    half the epochs are one such arrival only."""
    rng = np.random.default_rng(seed)
    resources = [
        Resource(f"r{i}", float(rng.integers(10, 1000)) * (_MB if arrivals else 1.0))
        for i in range(int(rng.integers(*((4, 10) if departures or arrivals else (2, 8)))))
    ]
    ref, cur = ReferenceRateAllocator(), RateAllocator()
    ref_live, cur_live = [], []
    next_id = seen = multi = inert = inert_arrivals = 0
    if departures or arrivals:
        for next_id in range(int(rng.integers(8, 17))):
            if arrivals:
                path = _with_own_resource(rng, resources, next_id)
            else:
                picks = rng.integers(0, len(resources), int(rng.integers(2, 4)))
                path = tuple(resources[int(i)] for i in picks)
            for alloc, live in ((ref, ref_live), (cur, cur_live)):
                live.append(StubFlow(f"f{next_id}", path))
                alloc.add_flow(live[-1])
        next_id += 1
        _assert_same_recompute(ref, cur, ref_live, cur_live)
    for _ in range(MUTATIONS_PER_SEED):
        next_id, succession, leavers, arrival = _coalesced_epoch(
            rng, ref, cur, ref_live, cur_live, resources, next_id, departures, arrivals
        )
        # Whether the replay takes a one-arrival epoch is the allocator's
        # own call; the contract it is then held to is not. It is asked,
        # as recompute asks it, only for an arrival that shares a resource.
        binds_nobody = (
            arrival is not None
            and any(len(cur._users[res]) != 1 for res in cur._flow_resources[arrival])
            and cur._replay_arrival(arrival) is not None
        )
        if (
            succession is None
            and not (leavers and _inert_by_the_rule(cur, leavers))
            and not binds_nobody
        ):
            successions, inert_epochs = cur.successions, cur.inert
            inert_arrival_epochs = cur.inert_arrivals
            _assert_same_recompute(ref, cur, ref_live, cur_live)
            assert cur.successions == successions, f"seed={seed}: not a succession"
            assert cur.inert == inert_epochs, f"seed={seed}: not inert"
            assert cur.inert_arrivals == inert_arrival_epochs, f"seed={seed}: not inert"
        else:
            if binds_nobody:
                inert_arrivals += 1
                _assert_inert_arrival_contract(ref, cur, ref_live, cur_live, arrival)
            elif succession is None:
                inert += 1
                _assert_inert_contract(cur, cur_live)
            else:
                seen += 1
                multi += len(succession) > 1
                _assert_succession_contract(cur, cur_live, succession)
            # The reference re-solved in a fresh DFS order and may have
            # moved a bystander by an ulp: stand both on one solution
            # before the next ``==`` epoch.
            ref.recompute()
            for r, c in zip(ref_live, cur_live):
                r.rate = c.rate
        problems = bottleneck_violations(cur)
        assert not problems, f"seed={seed}: {problems[:3]}"
    return MUTATIONS_PER_SEED, seen, multi, inert, inert_arrivals


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_coalesced_epochs_match_reference_or_succession_contract(seed):
    """Several mutations per epoch, one recompute: every epoch that is not
    a succession is ``==`` the reference (rates and changed-flow order);
    every succession meets the succession contract."""
    _run_coalesced(seed)


def test_coalesced_battery_does_meet_successions():
    """The battery above is not vacuous: a fair share of its epochs are
    successions, some of several pairs (51 of 720 on these seeds, 15 of
    several pairs; 206 of 2 640 over all 220, 74 of several pairs)."""
    epochs, successions, multi, *_ = map(
        sum, zip(*(_run_coalesced(seed) for seed in range(60)))
    )
    assert successions >= 0.03 * epochs, (successions, epochs)
    assert multi >= 0.01 * epochs, (multi, epochs)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_departure_epochs_match_reference_or_inert_contract(seed):
    """The coalesced battery with half its epochs departures only: an
    epoch the inert rule covers writes nothing, runs no fill and leaves
    the from-scratch optimum standing; every other epoch that is not a
    succession is ``==`` the reference. After every epoch each recorded
    bottleneck certifies its flow and no record outlives its flow."""
    _run_coalesced(seed, departures=True)


def test_departure_battery_does_meet_inert_epochs():
    """Not vacuous either: a fair share of its epochs are inert (34 of
    720 on these seeds, 109 of 2 640 over all 220)."""
    epochs, _, _, inert, _ = map(
        sum, zip(*(_run_coalesced(seed, departures=True) for seed in range(60)))
    )
    assert inert >= 0.03 * epochs, (inert, epochs)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_arrival_epochs_match_reference_or_inert_arrival_contract(seed):
    """The coalesced battery in MB/s, with half its epochs one arrival
    over shared resources and one of its own: an arrival the replay takes
    writes itself alone, runs no fill and rates itself as the reference
    fill does; every other epoch that is not a succession or an inert
    departure is ``==`` the reference."""
    _run_coalesced(seed, arrivals=True)


def test_arrival_battery_does_meet_inert_arrivals():
    """Not vacuous: a fair share of its epochs are inert arrivals (110 of
    720 on these seeds, 466 of 2 640 over all 220)."""
    epochs, *_, arrivals = map(
        sum, zip(*(_run_coalesced(seed, arrivals=True) for seed in range(60)))
    )
    assert arrivals >= 0.03 * epochs, (arrivals, epochs)


# Named epochs on one standing solution. f0 over (r0, r1) is the leaver;
# f1-f3 chain r0-r1-r2 into its component; f4 sits alone on r3; f5 has
# no resources. An op is ("remove", flow index), ("add", path) or
# ("dirty", *resource indices) — no index marks everything.
_EPOCH_CAPACITIES = (100.0, 60.0, 90.0, 40.0)
_EPOCH_PATHS = [(0, 1), (0,), (1, 2), (2,), (3,), ()]

# A succession case also names the rates its arrivals inherit, in arrival
# order: the fill freezes f0 and f2 on r1 (30 each), then f4 on r3 (40),
# f3 on r2 (60) and f1 on r0 (70).
_SUCCESSION_EPOCHS = {
    "same-tuple": ([("remove", 0), ("add", (0, 1))], [30.0]),
    "arrival-registered-first": ([("add", (0, 1)), ("remove", 0)], [30.0]),
    "duplicate-resources": ([("remove", 0), ("add", (0, 0, 1, 0, 1))], [30.0]),
    "two-boundaries": (
        [("remove", 0), ("remove", 1), ("add", (0, 1)), ("add", (1, 2))], [30.0, 30.0],
    ),
    "two-boundaries-interleaved": (
        [("add", (1, 2)), ("remove", 0), ("remove", 1), ("add", (0, 1))], [30.0, 30.0],
    ),
    # f1 and f3 leave, their heirs arrive the other way round.
    "crossed-boundaries": (
        [("remove", 1), ("remove", 2), ("add", (2,)), ("add", (0,))], [60.0, 70.0],
    ),
    "three-boundaries": (
        [("remove", 4), ("remove", 0), ("remove", 0), ("add", (3,)), ("add", (0, 1)),
         ("add", (0,))],
        [40.0, 30.0, 70.0],
    ),
}
_FILL_EPOCHS = {
    "different-tuple": [("remove", 0), ("add", (0, 2))],
    "permuted-tuple": [("remove", 0), ("add", (1, 0))],
    "superset-tuple": [("remove", 0), ("add", (0, 1, 2))],
    "subset-tuple": [("remove", 0), ("add", (0,))],
    "two-departures-two-arrivals": [
        ("remove", 0), ("remove", 2), ("add", (0, 1)), ("add", (1, 2)),
    ],
    "one-departure-two-arrivals": [("remove", 0), ("add", (0, 1)), ("add", (0, 1))],
    "two-departures-one-arrival": [("remove", 0), ("remove", 1), ("add", (0, 1))],
    "two-boundaries-and-an-arrival": [
        ("remove", 0), ("add", (0, 1)), ("remove", 1), ("add", (1, 2)), ("add", (3,)),
    ],
    "two-boundaries-one-came-and-went": [
        ("remove", 0), ("add", (0, 1)), ("remove", -1), ("add", (0, 1)),
        ("remove", 0), ("add", (0,)),
    ],
    "unrelated-mark-dirty": [("remove", 0), ("dirty", 3), ("add", (0, 1))],
    "mark-everything-dirty": [("remove", 0), ("add", (0, 1)), ("dirty",)],
    "added-and-removed-inside-epoch": [
        ("remove", 0), ("add", (0, 1)), ("add", (2,)), ("remove", -1),
    ],
}


def _standing_twins(ops):
    """Rate the named graph on both sides, then apply ``ops`` to both
    without recomputing. Returns the twins plus the cur-side arrivals and
    departed flows."""
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(_EPOCH_CAPACITIES)]
    ref, cur = ReferenceRateAllocator(), RateAllocator()
    ref_live, cur_live = [], []

    def arrive(name, path):
        for alloc, live in ((ref, ref_live), (cur, cur_live)):
            live.append(StubFlow(name, tuple(resources[i] for i in path)))
            alloc.add_flow(live[-1])
        return cur_live[-1]

    for n, path in enumerate(_EPOCH_PATHS):
        arrive(f"f{n}", path)
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    arrivals, departed = [], []
    for n, (kind, *args) in enumerate(ops):
        if kind == "remove":
            ref.remove_flow(ref_live.pop(args[0]))
            departed.append(cur_live.pop(args[0]))
            cur.remove_flow(departed[-1])
        elif kind == "dirty":
            ref.mark_dirty(*(resources[i] for i in args))
            cur.mark_dirty(*(resources[i] for i in args))
        else:
            arrivals.append(arrive(f"new{n}", args[0]))
    return ref, cur, ref_live, cur_live, arrivals, departed


@pytest.mark.parametrize("ops, rates", _SUCCESSION_EPOCHS.values(), ids=_SUCCESSION_EPOCHS)
def test_succession_epoch_inherits_without_a_fill(ops, rates):
    ref, cur, ref_live, cur_live, arrivals, departed = _standing_twins(ops)
    pairs = _paired(departed, arrivals)
    assert [rate for rate, _ in pairs] == rates
    _assert_succession_contract(cur, cur_live, pairs)
    ref.recompute()  # exact capacities: the re-fill agrees to the bit
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]


@pytest.mark.parametrize("ops", _FILL_EPOCHS.values(), ids=_FILL_EPOCHS)
def test_epoch_outside_the_succession_rule_runs_the_fill(ops):
    ref, cur, ref_live, cur_live, _, _ = _standing_twins(ops)
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.successions) == (fills + 1, 0)


def test_resourceless_pair_is_not_a_succession():
    ops = [("remove", 5), ("add", ())]
    ref, cur, ref_live, cur_live, (arrival,), _ = _standing_twins(ops)
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert arrival.rate == float("inf")
    assert (cur.fills, cur.successions) == (fills, 0)  # the lone-flow path


def test_succession_of_a_stalled_leaver_changes_nothing():
    """A leaver at 0 B/s hands on 0 B/s, which the arrival already has:
    ``changed`` is empty, exactly as the fill leaves a 0 B/s arrival out."""
    ref, cur, ref_live, cur_live, _, _ = _standing_twins([])
    r0 = cur_live[0].resources[0]
    r0.capacity = 0.0  # set_capacity refuses it; a dead link all the same
    ref.mark_dirty(r0)
    cur.mark_dirty(r0)
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert cur_live[0].rate == 0.0
    for alloc, live in ((ref, ref_live), (cur, cur_live)):
        alloc.remove_flow(live.pop(0))
        live.append(StubFlow("heir", (r0, live[1].resources[0])))
        alloc.add_flow(live[-1])
    touched = []
    assert cur.recompute(on_touch=touched.append) == [] == touched
    assert ref.recompute() == []
    assert cur.successions == 1 and cur_live[-1].rate == 0.0
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]


def test_succession_settles_the_arrival_once_before_writing_its_rate():
    _, cur, _, _, (arrival,), _ = _standing_twins(_SUCCESSION_EPOCHS["same-tuple"][0])
    seen = []
    cur.recompute(on_touch=lambda flow: seen.append((flow, flow.rate)))
    assert seen == [(arrival, 0.0)] and arrival.rate == 30.0


def test_succession_settles_each_arrival_once_in_arrival_order():
    """Heirs that arrive the other way round from their leavers are still
    settled, then written, in the order they arrived."""
    ops, rates = _SUCCESSION_EPOCHS["crossed-boundaries"]
    _, cur, _, _, arrivals, _ = _standing_twins(ops)
    seen = []
    cur.recompute(on_touch=lambda flow: seen.append((flow, flow.rate)))
    assert seen == [(arrival, 0.0) for arrival in arrivals]
    assert [arrival.rate for arrival in arrivals] == rates


# Departure-only epochs on the same standing solution. The fill freezes
# f0 and f2 on r1 (30 each), then f4 on r3 (40), f3 on r2 (60) and f1 on
# r0 (70); f5 is unbounded. Indices are into the live list as it shrinks.
_INERT_EPOCHS = {
    "leaver-alone-at-its-bottleneck": [("remove", 1)],
    "two-leavers-both-inert": [("remove", 1), ("remove", 2)],
}
_DEPARTURE_FILL_EPOCHS = {
    "leaver-shares-its-bottleneck": [("remove", 0)],
    "two-leavers-one-not-inert": [("remove", 1), ("remove", 0)],
    "departure-and-mark-dirty": [("remove", 1), ("dirty", 3)],
    "departure-and-arrival": [("remove", 1), ("add", (2,))],
}


def _records_match_flows(cur):
    return cur._bottleneck.keys() == cur._flow_resources.keys()


@pytest.mark.parametrize("ops", _INERT_EPOCHS.values(), ids=_INERT_EPOCHS)
def test_inert_departure_keeps_the_standing_solution(ops):
    ref, cur, ref_live, cur_live, _, departed = _standing_twins(ops)
    assert _inert_by_the_rule(cur, departed)
    _assert_inert_contract(cur, cur_live)
    ref.recompute()  # exact capacities: the re-fill agrees to the bit
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]
    assert _records_match_flows(cur) and not bottleneck_violations(cur)


@pytest.mark.parametrize("ops", _DEPARTURE_FILL_EPOCHS.values(), ids=_DEPARTURE_FILL_EPOCHS)
def test_departure_outside_the_inert_rule_runs_the_fill(ops):
    ref, cur, ref_live, cur_live, _, _ = _standing_twins(ops)
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert) == (fills + 1, 0)
    assert _records_match_flows(cur) and not bottleneck_violations(cur)


@pytest.mark.parametrize(
    "first, then, inert",
    [
        # f1's heir inherits "frozen by r0"; it leaves, f0 on r0 is frozen by r1.
        ([("remove", 1), ("add", (0,))], -1, True),
        # f0's heir inherits "frozen by r1"; f1 leaves r0 to it alone.
        ([("remove", 0), ("add", (0, 1))], 0, True),
        # f0's heir inherits "frozen by r1"; f2, frozen beside it, leaves.
        ([("remove", 0), ("add", (0, 1))], 1, False),
    ],
    ids=["successor-leaves", "successor-stays-on-a-freed-link", "successor-loses-its-partner"],
)
def test_inherited_record_decides_a_later_departure(first, then, inert):
    ref, cur, ref_live, cur_live, (heir,), (leaver,) = _standing_twins(first)
    assert leaver not in cur._bottleneck  # moved out with the leaver
    _assert_succession_contract(cur, cur_live, [(leaver.rate, heir)])
    ref.recompute()
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]
    assert cur._bottleneck[heir] is heir.resources[-1]  # r0 alone, or r1
    ref.remove_flow(ref_live.pop(then))
    cur.remove_flow(gone := cur_live.pop(then))
    assert gone not in cur._bottleneck
    if inert:
        _assert_inert_contract(cur, cur_live)
        ref.recompute()
        assert [f.rate for f in cur_live] == [f.rate for f in ref_live]
    else:
        fills = cur.fills
        _assert_same_recompute(ref, cur, ref_live, cur_live)
        assert (cur.fills, cur.inert) == (fills + 1, 0)
    assert _records_match_flows(cur) and not bottleneck_violations(cur)


def test_resourceless_leaver_has_nothing_to_rerate():
    ref, cur, ref_live, cur_live, _, _ = _standing_twins([("remove", 5)])
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert) == (fills, 0)
    assert _records_match_flows(cur)


def test_unknown_record_counts_as_frozen_by_the_leavers_resource():
    """Flows on only unbounded resources are frozen by nothing (``None``);
    a departure beside one is never inert."""
    ref, cur, ref_live, cur_live = _build_twins(
        (float("inf"), 50.0), [(0,), (0,), (0, 1)]
    )
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert cur._bottleneck[cur_live[0]] is None
    assert cur._bottleneck[cur_live[2]] is cur_live[2].resources[1]
    for alloc, live in ((ref, ref_live), (cur, cur_live)):
        alloc.remove_flow(live.pop(2))
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert) == (fills + 1, 0)


def test_no_record_outlives_its_flow():
    """Through an inert departure, a succession, a fill and a flow that
    came and went unrated, the records are exactly the registered flows."""
    _, cur, _, live, _, _ = _standing_twins([])
    r0, r1 = live[0].resources

    def arrive(*path):
        live.append(StubFlow("new", path))
        cur.add_flow(live[-1])

    epochs = [
        lambda: cur.remove_flow(live.pop(1)),  # inert
        lambda: (cur.remove_flow(live.pop(0)), arrive(r0, r1)),  # succession
        lambda: cur.remove_flow(live.pop(0)),  # fill
        lambda: (arrive(r0), cur.remove_flow(live.pop())),  # came and went
    ]
    for epoch in epochs:
        epoch()
        cur.recompute()
        assert _records_match_flows(cur) and not bottleneck_violations(cur)
    assert (cur.inert, cur.successions) == (1, 1)


# One arrival on a standing solution, in MB/s (below 16 KiB/s the slack
# could decide, and the rule leaves every such epoch to the fill). A case
# is (capacities, standing paths, the arrival's path); "takes" cases also
# name the arrival's rate and the index of the resource that freezes it.
_ARRIVAL_TAKES = {
    # g at 20 on r1 leaves 80 of r0; the arrival's own r2 holds it to 30.
    "fits-the-slack": ((100, 20, 30), [(0, 1)], (0, 2), 30, 2),
    "bound-by-the-shared-link": ((100, 20), [(0, 1)], (0,), 80, 0),
    # g frozen at 30 by r1, the arrival at 30 by its r2: a unit-round tie.
    "unit-round-tie": ((100, 30, 30), [(0, 1)], (0, 2), 30, 2),
    "two-unit-rounds-tied": ((100, 30, 30, 30), [(0, 1), (0, 2)], (0, 3), 30, 3),
    "equal-rounds-at-one-level": ((300, 30, 30), [(0, 1), (0, 2)], (0,), 240, 0),
    # Halving r0 would bind g at 60, but the arrival freezes at 10 on r2
    # first and leaves g 90 of it.
    "frozen-before-it-could-bind": ((100, 60, 10), [(0, 1)], (0, 2), 10, 2),
}
_ARRIVAL_FILLS = {
    "saturated-resource": ((100, 20), [(0,)], (0, 1)),
    "faster-neighbour": ((100, 80), [(0, 1)], (0,)),
    # g1 leaves r0 at 90 for two: 45 binds g2, frozen at 60 by r2.
    "faster-neighbour-behind-a-slower-one": ((100, 10, 60), [(0, 1), (0, 2)], (0,)),
    "unequal-rounds-at-one-level": ((300, 30, 60), [(0, 1), (0, 2), (0, 2)], (0,)),
    "tied-with-a-round-of-two": ((100, 60, 30), [(0, 1), (0, 1)], (0, 2)),
    "tied-resources-of-the-arrival": ((100, 100, 20, 20), [(0, 2), (1, 3)], (0, 1)),
    "infinite-capacity": ((float("inf"), 100, 20), [(0, 2)], (1, 0)),
    "level-below-the-slack": ((100, 1e-12), [(0, 1)], (0,)),
    "arrival-below-the-slack": ((100, 20, 1e-12), [(0, 1)], (0, 2)),
    # A float tie: r0's seven users (six frozen at 110 370.33 by their own
    # r1-r6, the arrival tied at that level on r7) share it above that
    # level, but once one freezes the other six are down to it: in float,
    # (772 592.33 - 110 370.33) / 6 <= 110 370.33.
    "share-rounds-down-to-the-level": (
        (772592.3333333334 / _MB, *[110370.33333333333 / _MB] * 7),
        [(0, i) for i in range(1, 7)],
        (0, 7),
    ),
}


def _arrival_twins(capacities, paths, arrival_path):
    """Rate ``paths`` over ``capacities`` (MB/s) on both twins, then add
    the arrival ``new`` over ``arrival_path`` to both without recomputing;
    returns the twins and the resources."""
    resources = [Resource(f"r{i}", cap * _MB) for i, cap in enumerate(capacities)]
    ref, cur = ReferenceRateAllocator(), RateAllocator()
    ref_live, cur_live = [], []

    def arrive(name, path):
        for alloc, live in ((ref, ref_live), (cur, cur_live)):
            live.append(StubFlow(name, tuple(resources[i] for i in path)))
            alloc.add_flow(live[-1])

    for n, path in enumerate(paths):
        arrive(f"f{n}", path)
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    arrive("new", arrival_path)
    return ref, cur, ref_live, cur_live, resources


@pytest.mark.parametrize("case", _ARRIVAL_TAKES.values(), ids=_ARRIVAL_TAKES)
def test_arrival_that_binds_nobody_is_rated_without_a_fill(case):
    capacities, paths, arrival_path, rate, frozen_by = case
    ref, cur, ref_live, cur_live, resources = _arrival_twins(capacities, paths, arrival_path)
    arrival = cur_live[-1]
    _assert_inert_arrival_contract(ref, cur, ref_live, cur_live, arrival)
    assert arrival.rate == rate * _MB
    assert cur._bottleneck[arrival] is resources[frozen_by]
    assert [f.rate for f in cur_live] == [f.rate for f in ref_live]  # exact here
    assert not bottleneck_violations(cur)


@pytest.mark.parametrize("case", _ARRIVAL_FILLS.values(), ids=_ARRIVAL_FILLS)
def test_arrival_outside_the_inert_rule_runs_the_fill(case):
    ref, cur, ref_live, cur_live, _ = _arrival_twins(*case)
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert_arrivals) == (fills + 1, 0)


def test_arrival_beside_a_flow_without_a_record_runs_the_fill():
    """After a recompute every flow has a record; were one missing, the
    rule would not guess where that flow is frozen."""
    ref, cur, ref_live, cur_live, _ = _arrival_twins((100, 20), [(0, 1)], (0,))
    del cur._bottleneck[cur_live[0]]
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert_arrivals) == (fills + 1, 0)


@pytest.mark.parametrize("extra", ["departure", "mark-dirty", "second-arrival"])
def test_arrival_with_anything_else_in_its_epoch_runs_the_fill(extra):
    """f0 frozen at 20 by r1, f1 alone on r2: an arrival over r0 alone
    would bind nobody, but not beside another mutation."""
    ref, cur, ref_live, cur_live, resources = _arrival_twins(
        (100, 20, 50), [(0, 1), (2,)], (0,)
    )
    if extra == "departure":
        ref.remove_flow(ref_live.pop(1))
        cur.remove_flow(cur_live.pop(1))
    elif extra == "mark-dirty":
        ref.mark_dirty(resources[2])
        cur.mark_dirty(resources[2])
    else:
        for alloc, live in ((ref, ref_live), (cur, cur_live)):
            live.append(StubFlow("newer", (resources[0],)))
            alloc.add_flow(live[-1])
    fills = cur.fills
    _assert_same_recompute(ref, cur, ref_live, cur_live)
    assert (cur.fills, cur.inert_arrivals) == (fills + 1, 0)
