"""Property-based tests of the simulator core (hypothesis)."""

import inspect
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Flow,
    FlowScheduler,
    Resource,
    Simulator,
    Transfer,
    TransferManager,
    allocate_rates,
)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_allocation_is_feasible_and_work_conserving(seed):
    """Max-min allocation never overloads a resource, and every flow is
    limited by at least one saturated resource (work conservation)."""
    rng = np.random.default_rng(seed)
    resources = [Resource(f"r{i}", float(rng.integers(10, 1000))) for i in range(6)]
    flows = []
    for i in range(int(rng.integers(1, 12))):
        count = int(rng.integers(1, 4))
        chosen = rng.choice(len(resources), size=count, replace=False)
        flows.append(Flow(f"f{i}", 1000, tuple(resources[j] for j in chosen)))
    allocate_rates(flows)

    usage = {r.name: 0.0 for r in resources}
    for flow in flows:
        assert flow.rate >= 0
        for res in flow.resources:
            usage[res.name] += flow.rate
    for res in resources:
        assert usage[res.name] <= res.capacity * (1 + 1e-9)
    # Work conservation: each flow crosses a resource that is (nearly)
    # fully used, otherwise its rate could be raised.
    for flow in flows:
        assert any(
            usage[res.name] >= res.capacity * (1 - 1e-6) for res in flow.resources
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_allocation_max_min_fairness(seed):
    """No flow can gain rate without hurting an equal-or-poorer flow:
    equivalently, two flows sharing a bottleneck get equal rates unless
    one is constrained elsewhere at a lower rate."""
    rng = np.random.default_rng(seed)
    resources = [Resource(f"r{i}", float(rng.integers(50, 500))) for i in range(4)]
    flows = []
    for i in range(int(rng.integers(2, 8))):
        count = int(rng.integers(1, 3))
        chosen = rng.choice(len(resources), size=count, replace=False)
        flows.append(Flow(f"f{i}", 1000, tuple(resources[j] for j in chosen)))
    allocate_rates(flows)
    usage = {r.name: sum(f.rate for f in flows if r in f.resources) for r in resources}
    for res in resources:
        sharers = [f for f in flows if res in f.resources]
        if not sharers or usage[res.name] < res.capacity * (1 - 1e-6):
            continue
        top = max(f.rate for f in sharers)
        for flow in sharers:
            if flow.rate < top - 1e-9:
                # The poorer flow must itself be bottlenecked elsewhere.
                assert any(
                    usage[r.name] >= r.capacity * (1 - 1e-6)
                    and flow.rate
                    <= max(x.rate for x in flows if r in x.resources) - 1e-12
                    or usage[r.name] >= r.capacity * (1 - 1e-6)
                    for r in flow.resources
                    if r is not res
                )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_bytes_conserved_through_completion(seed):
    """Every completed flow accounts exactly its size on every resource."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    sched = FlowScheduler(sim)
    resources = [Resource(f"r{i}", float(rng.integers(50, 200))) for i in range(3)]
    flows = []
    for i in range(int(rng.integers(1, 8))):
        res = resources[int(rng.integers(0, 3))]
        size = float(rng.integers(1, 500))
        flow = Flow(f"f{i}", size, (res,), tag=f"tag{i % 2}")
        flows.append(flow)
        delay = float(rng.uniform(0, 3))
        sim.schedule(delay, lambda f=flow: sched.start_flow(f))
    sim.run()
    assert all(f.done for f in flows)
    for res in resources:
        expected = sum(f.size for f in flows if res in f.resources)
        assert res.total_bytes == pytest.approx(expected, rel=1e-6, abs=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_transfer_chains_complete_in_dependency_order(seed):
    """Random transfer DAGs always finish, respecting dependencies."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    sched = FlowScheduler(sim)
    mgr = TransferManager(sched)
    n = int(rng.integers(2, 8))
    transfers = []
    for i in range(n):
        res = Resource(f"r{i}", float(rng.integers(50, 200)))
        t = Transfer(f"t{i}", (res,), float(rng.integers(100, 400)), 50.0)
        # Depend on a random subset of earlier transfers (keeps it a DAG).
        for j in range(i):
            if rng.random() < 0.3:
                t.depends_on(transfers[j])
        transfers.append(t)
    for t in transfers:
        mgr.start(t)
    sim.run()
    for t in transfers:
        assert t.done
        for dep in t.deps:
            assert dep.completed_at <= t.completed_at + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=2000),
)
def test_transfer_slicing_exact(num_slices_hint, size):
    """Slice sizes always sum to the transfer size."""
    slice_size = max(1, size // num_slices_hint)
    t = Transfer("t", (), float(size), float(slice_size))
    assert sum(t.slice_sizes) == pytest.approx(float(size))
    assert t.num_slices >= 1


# -- event dispatch order --------------------------------------------------

_GRID = (0.0, 0.0, 0.25, 1.0, 1.0, 1.0, 3.0)
_EVENT_OPS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(_GRID)),
    st.tuples(st.just("call_at"), st.sampled_from(_GRID)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("defer"), st.just(0)),
    st.tuples(st.just("cancel_last"), st.just(0)),
    st.tuples(st.just("stop"), st.just(0)),
    st.tuples(st.just("raise"), st.just(0)),
)


class _Boom(Exception):
    pass


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_EVENT_OPS, min_size=1, max_size=80),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=3),
)
def test_dispatch_is_exactly_time_then_push_order(ops, upfront, burst):
    """Whatever interleaving of ``schedule`` / ``call_at`` / ``defer`` /
    ``cancel`` runs before and *during* the loop, the event dispatched next
    is the live one with the smallest ``(time, seq)``, where ``seq`` counts
    requests, whether it comes off the queue or a deferred one runs
    inline. ``pending_events`` and ``peek_next_time`` count a deferred
    event, one cancelled before its opener returns never fires, and one
    pending when a callback stops the run or raises stays queued for the
    next ``run``. Callbacks are closures and their args bare objects —
    neither is orderable, so a heap that ever compared past ``seq`` would
    raise ``TypeError`` here."""
    sim = Simulator()
    pending: dict[int, tuple[float, int]] = {}  # id -> (time, seq)
    events = []
    fired = []
    todo = iter(ops)

    def apply(op, in_loop):
        kind, value = op
        if kind in ("cancel", "cancel_last"):
            if events:
                ident = value % len(events) if kind == "cancel" else len(events) - 1
                events[ident].cancel()
                pending.pop(ident, None)
            return
        if kind == "stop":
            sim.stop()
            return
        if kind == "raise":
            if in_loop:
                raise _Boom
            return
        ident = len(events)
        callback = lambda token, meta, ident=ident: fire(ident)
        if kind == "schedule":
            event = sim.schedule(value, callback, object(), {"id": ident})
        elif kind == "call_at":
            event = sim.call_at(max(value, sim.now), callback, object(), {"id": ident})
        else:
            event = sim.defer(callback, object(), {"id": ident})
        assert event.seq == ident
        events.append(event)
        pending[ident] = (event.time, event.seq)

    def check_pending():
        assert sim.pending_events() == len(pending)
        assert sim.peek_next_time() == min((t for t, _ in pending.values()), default=None)

    def fire(ident):
        assert pending[ident] == min(pending.values())
        assert sim.now == pending.pop(ident)[0]
        fired.append(ident)
        for _ in range(burst):
            op = next(todo, None)
            if op is not None:
                apply(op, in_loop=True)
        check_pending()

    for _ in range(upfront):
        op = next(todo, None)
        if op is not None:
            apply(op, in_loop=False)
    check_pending()
    while True:
        try:
            sim.run()
        except _Boom:
            pass
        check_pending()
        if not pending:
            break
    assert len(set(fired)) == len(fired)
    assert sim.events_dispatched == len(fired)
    assert sim.events_inline <= sum(kind == "defer" for kind, _ in ops)


def _opener_run(then=None, rival=None):
    """One event at t=1 defers ``"deferred"``, then calls ``then(sim,
    event)``; a plain ``rival`` event is queued at t=``rival`` first.
    Returns (sim, fired, what ``then`` returned)."""
    sim = Simulator()
    fired = []
    seen = []

    def opener():
        fired.append("opener")
        event = sim.defer(fired.append, "deferred")
        seen.append(then(sim, event) if then is not None else None)

    sim.call_at(1.0, opener)
    if rival is not None:
        sim.call_at(rival, fired.append, "rival")
    return sim, fired, seen


class TestDefer:
    def test_runs_inline_when_nothing_comes_before_it(self):
        sim, fired, seen = _opener_run(lambda sim, event: sim.runs_next(event), rival=2.0)
        sim.run()
        assert fired == ["opener", "deferred", "rival"]
        assert seen == [True]
        assert (sim.events_dispatched, sim.events_inline) == (3, 1)

    def test_waits_for_an_earlier_event_at_the_same_instant(self):
        sim, fired, seen = _opener_run(lambda sim, event: sim.runs_next(event), rival=1.0)
        sim.run()
        assert fired == ["opener", "rival", "deferred"]
        assert seen == [False]
        assert (sim.events_dispatched, sim.events_inline) == (3, 0)

    def test_outside_run_it_is_queued(self):
        sim = Simulator()
        fired = []
        event = sim.defer(fired.append, "deferred")
        assert not sim.runs_next(event)
        assert (sim.pending_events(), sim.peek_next_time()) == (1, 0.0)
        sim.run()
        assert fired == ["deferred"]
        assert (sim.events_dispatched, sim.events_inline) == (1, 0)

    def test_cancelled_before_its_opener_returns_it_never_fires(self):
        sim, fired, _ = _opener_run(lambda sim, event: event.cancel())
        sim.run()
        assert fired == ["opener"]
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("how", ["stop", "raise"])
    def test_a_stopped_run_leaves_it_queued(self, how):
        def halt(sim, event):
            if how == "stop":
                sim.stop()
                return sim.runs_next(event)
            raise _Boom

        sim, fired, seen = _opener_run(halt, rival=2.0)
        if how == "stop":
            assert sim.run(until=5.0) == 1.0
            assert seen == [False]
        else:
            with pytest.raises(_Boom):
                sim.run()
        assert fired == ["opener"]
        assert (sim.pending_events(), sim.peek_next_time()) == (2, 1.0)
        sim.run()
        assert fired == ["opener", "deferred", "rival"]
        assert sim.events_inline == 0


def test_thousand_same_instant_events_fire_in_push_order():
    """1 000 events at one timestamp, each with its own closure and an
    unorderable argument: FIFO, and no comparison ever reaches them."""
    sim = Simulator()
    fired = []
    doomed = []
    for i in range(1000):
        event = sim.call_at(
            1.0, lambda token, i=i: fired.append(i), object()
        )
        if i % 7 == 3:
            doomed.append(event)
    for event in doomed:
        event.cancel()
    sim.run()
    assert fired == [i for i in range(1000) if i % 7 != 3]


# -- hot state stays plain -------------------------------------------------


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Flow, ("remaining", "rate", "_settled_at", "_eta")),
        (Resource, ("capacity", "bytes_by_tag")),
    ],
)
def test_hot_fields_are_plain_slots(cls, fields):
    """A ratchet against re-adding indirection: the fields the scheduler
    and allocator touch millions of times per run are slot descriptors
    (not properties), and instances carry no ``__dict__``."""
    instance = Flow("f", 1.0, ()) if cls is Flow else Resource("r", 1.0)
    assert not hasattr(instance, "__dict__")
    for name in fields:
        assert isinstance(inspect.getattr_static(cls, name), types.MemberDescriptorType), name
