"""Tests for max-min fair allocation and fluid flow completion."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sim import (
    Flow,
    FlowScheduler,
    Resource,
    Simulator,
    Transfer,
    TransferManager,
    allocate_rates,
)
from tests.oracles import (
    AuditedRateAllocator,
    InPlaceCountingScheduler,
    NeverQuietSimulator,
    QueueOnlySimulator,
)


def make_env():
    sim = Simulator()
    return sim, FlowScheduler(sim)


class TestAllocator:
    def test_single_flow_gets_capacity(self):
        r = Resource("up", 100.0)
        f = Flow("f", 1000, (r,))
        allocate_rates([f])
        assert f.rate == pytest.approx(100.0)

    def test_equal_sharing(self):
        r = Resource("up", 100.0)
        flows = [Flow(f"f{i}", 1000, (r,)) for i in range(4)]
        allocate_rates(flows)
        assert all(f.rate == pytest.approx(25.0) for f in flows)

    def test_bottleneck_identification(self):
        # Two flows share a 100 B/s uplink; one also crosses a 30 B/s
        # downlink. Max-min: constrained flow gets 30, the other 70.
        up = Resource("up", 100.0)
        down = Resource("down", 30.0)
        constrained = Flow("slow", 1000, (up, down))
        free = Flow("fast", 1000, (up,))
        allocate_rates([constrained, free])
        assert constrained.rate == pytest.approx(30.0)
        assert free.rate == pytest.approx(70.0)

    def test_multi_resource_chain(self):
        # Flow limited by the tightest resource on its path.
        a, b, c = Resource("a", 100), Resource("b", 10), Resource("c", 50)
        f = Flow("f", 100, (a, b, c))
        allocate_rates([f])
        assert f.rate == pytest.approx(10.0)

    def test_empty_input_ok(self):
        allocate_rates([])

    def test_no_resource_flow_unbounded(self):
        f = Flow("f", 10, ())
        allocate_rates([f])
        assert f.rate == float("inf")


class TestFlowScheduler:
    def test_flow_completes_at_expected_time(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f = Flow("f", 1000, (r,))
        sched.start_flow(f)
        sim.run()
        assert f.done
        assert f.completed_at == pytest.approx(10.0)

    def test_two_flows_share_then_speed_up(self):
        # Two equal flows on one link: first halves finish together at
        # t=10 (50 B/s each); after one completes, nothing remains.
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f1 = Flow("f1", 500, (r,))
        f2 = Flow("f2", 1000, (r,))
        sched.start_flow(f1)
        sched.start_flow(f2)
        sim.run()
        assert f1.completed_at == pytest.approx(10.0)
        # f2: 500B by t=10 at 50 B/s, remaining 500B at 100 B/s -> t=15.
        assert f2.completed_at == pytest.approx(15.0)

    def test_late_arrival_shares_fairly(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f1 = Flow("f1", 1000, (r,))
        sched.start_flow(f1)
        f2 = Flow("f2", 400, (r,))
        sim.schedule(5.0, lambda: sched.start_flow(f2))
        sim.run()
        # f1 alone 0-5s: 500B. Shared 50/50 until f2 done at 5+8=13s
        # (f2: 400B at 50B/s). f1 then has 100B left at 100B/s -> 14s.
        assert f2.completed_at == pytest.approx(13.0)
        assert f1.completed_at == pytest.approx(14.0)

    def test_cancel_flow_releases_bandwidth(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f1 = Flow("f1", 1000, (r,))
        f2 = Flow("f2", 1000, (r,))
        sched.start_flow(f1)
        sched.start_flow(f2)
        sim.schedule(5.0, lambda: sched.cancel_flow(f2))
        sim.run()
        # f1: 250B by t=5, then full rate: (1000-250)/100 = 7.5 -> 12.5s.
        assert f1.completed_at == pytest.approx(12.5)
        assert f2.cancelled and not f2.done

    def test_zero_size_flow_completes_immediately(self):
        sim, sched = make_env()
        f = Flow("f", 0, (Resource("r", 10),))
        done = []
        f.on_complete.append(lambda fl: done.append(sim.now))
        sched.start_flow(f)
        sim.run()
        assert done == [0.0]

    def test_byte_accounting_by_tag(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        sched.start_flow(Flow("rep", 300, (r,), tag="repair"))
        sched.start_flow(Flow("fg", 200, (r,), tag="foreground"))
        sim.run()
        assert r.bytes_by_tag["repair"] == pytest.approx(300.0)
        assert r.bytes_by_tag["foreground"] == pytest.approx(200.0)
        assert r.total_bytes == pytest.approx(500.0)

    def test_capacity_change_rebalances(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f = Flow("f", 1000, (r,))
        sched.start_flow(f)

        def throttle():
            r.set_capacity(50.0)
            sched.capacity_changed()

        sim.schedule(5.0, throttle)
        sim.run()
        # 500B in 5s, remaining 500B at 50B/s -> 15s total.
        assert f.completed_at == pytest.approx(15.0)

    def test_completion_callback_starts_next_flow(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f1 = Flow("f1", 500, (r,))
        f2 = Flow("f2", 500, (r,))
        f1.on_complete.append(lambda _: sched.start_flow(f2))
        sched.start_flow(f1)
        sim.run()
        assert f2.completed_at == pytest.approx(10.0)

    def test_cancel_completed_flow_is_full_noop(self):
        # Regression: cancel used to mark completed flows cancelled and
        # bump the cancelled counter; now it must leave them untouched.
        sim, sched = make_env()
        f = Flow("f", 100, (Resource("r", 100.0),))
        sched.start_flow(f)
        sim.run()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            sched.cancel_flow(f)
        finally:
            set_registry(previous)
        assert f.done and not f.cancelled
        assert registry.counter("flows.cancelled").value == 0

    def test_double_cancel_counts_once(self):
        sim, sched = make_env()
        r = Resource("r", 100.0)
        f = Flow("f", 1000, (r,))
        sched.start_flow(f)
        sim.run(until=1.0)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            sched.cancel_flow(f)
            sched.cancel_flow(f)
        finally:
            set_registry(previous)
        assert f.cancelled
        assert registry.counter("flows.cancelled").value == 1

    def test_cancel_never_started_not_counted(self):
        # A never-started flow is only marked cancelled (so start_flow
        # raises later); it was never live, so the counter stays put.
        sim, sched = make_env()
        f = Flow("f", 100, (Resource("r", 100.0),))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            sched.cancel_flow(f)
        finally:
            set_registry(previous)
        assert f.cancelled and not f.done
        assert registry.counter("flows.cancelled").value == 0
        with pytest.raises(SimulationError):
            sched.start_flow(f)

    def test_restart_finished_flow_raises(self):
        sim, sched = make_env()
        r = Resource("link", 100.0)
        f = Flow("f", 100, (r,))
        sched.start_flow(f)
        sim.run()
        with pytest.raises(SimulationError):
            sched.start_flow(f)

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            Flow("bad", -5, ())

    def test_resource_validation(self):
        with pytest.raises(SimulationError):
            Resource("bad", 0)


class _Observed(FlowScheduler):
    """Records the ETA heap's length and bound after every recompute."""

    def __init__(self, sim):
        super().__init__(sim)
        self.heap_after_recompute = []
        self.compactions = 0

    def _do_recompute(self):
        super()._do_recompute()
        self.heap_after_recompute.append((len(self._eta_heap), 4 * len(self.active) + 64))

    def _compact_eta_heap(self):
        self.compactions += 1
        super()._compact_eta_heap()


class _NeverCompacts(_Observed):
    def _compact_eta_heap(self):
        pass


def _hot_link_run(scheduler_cls):
    """150 flows of unequal size share one hot downlink; every completion
    raises the others' rates, moving each ETA earlier and leaving its
    previous heap entry behind."""
    sim = Simulator()
    sched = scheduler_cls(sim)
    hot = Resource("hot", 100.0)
    flows = [Flow(f"f{i}", 50.0 + 7.0 * i, (Resource(f"up{i}", 1e4), hot)) for i in range(150)]
    for i, flow in enumerate(flows):
        sim.schedule(0.01 * i, sched.start_flow, flow)
    sim.run()
    assert all(flow.done for flow in flows)
    return sched, [(flow.name, flow.completed_at) for flow in flows]


class TestEtaHeap:
    def test_heap_stays_within_its_bound(self):
        sched, _ = _hot_link_run(_Observed)
        assert sched.compactions > 0
        assert all(size <= bound for size, bound in sched.heap_after_recompute)

    def test_compaction_does_not_move_a_completion(self):
        sched, timeline = _hot_link_run(_Observed)
        lazy, lazy_timeline = _hot_link_run(_NeverCompacts)
        assert timeline == lazy_timeline
        # Without compaction the superseded entries do pile up.
        assert any(size > bound for size, bound in lazy.heap_after_recompute)


# -- inline epochs: the engine against its queue-only twin -----------------


class _RecordingAllocator(AuditedRateAllocator):
    """Records every rate each epoch writes, in write order."""

    def __init__(self, sim):
        super().__init__(rel_tol=1e-12)
        self.sim = sim
        self.written = []

    def recompute(self, on_touch=None):
        changed = super().recompute(on_touch)
        self.written.append((self.sim.now, [(flow.name, flow.rate) for flow in changed]))
        return changed

    def counters(self):
        return (self.fills, self.successions, self.inert, self.inert_arrivals)


_GRID = (0.0, 0.5, 0.5, 1.0, 2.0, 2.0, 3.5)


def _mixed_run(sim_cls, seed):
    """One seeded mixed workload: closed-loop clients alone on their own
    links, issuing the next request from the completion, at the same
    instant through the queue or after a think time, and reading the
    next event time and pending count when they do; flows over one hot
    link, several arriving at one instant, some also crossing a client's
    link; a zero-byte flow; cancellations; capacity changes of the hot
    link (its component, then everything); and ``run(until=)`` pauses.
    Every draw is made up front, so both twins run the same workload."""
    rng = np.random.default_rng(seed)
    sim = sim_cls()
    sched = InPlaceCountingScheduler(sim, allocator=_RecordingAllocator(sim))
    hot = Resource("hot", float(rng.integers(150, 400)))
    resources = [hot]
    flows = []
    probes = []

    def client(c, up, down, sizes, thinks):
        def issue(k):
            probes.append((sim.now, sim.peek_next_time(), sim.pending_events()))
            if k == len(sizes):
                return
            flow = Flow(f"c{c}.{k}", float(sizes[k]), (up, down), tag="fg")
            flows.append(flow)
            if thinks[k] < 0.0:  # the next request from inside the completion
                flow.on_complete.append(lambda _: issue(k + 1))
            else:
                flow.on_complete.append(lambda _: sim.schedule(thinks[k], issue, k + 1))
            sched.start_flow(flow)

        return issue

    links = []
    for c in range(int(rng.integers(2, 6))):
        up = Resource(f"c{c}.up", float(rng.integers(80, 300)))
        down = Resource(f"c{c}.down", float(rng.integers(80, 300)))
        resources += [up, down]
        links.append(down)
        rounds = int(rng.integers(3, 9))
        sizes = rng.integers(5, 200, size=rounds)
        thinks = rng.choice([-1.0, -1.0, 0.0, 0.05, 0.5], size=rounds)
        sim.call_at(float(rng.choice(_GRID)), client(c, up, down, sizes, thinks), 0)
    for i in range(int(rng.integers(4, 14))):
        own = Resource(f"h{i}.up", float(rng.integers(50, 500)))
        resources.append(own)
        path = (own, hot)
        if rng.random() < 0.3:
            path += (links[int(rng.integers(0, len(links)))],)
        flow = Flow(f"h{i}", float(rng.integers(20, 600)), path, tag="repair")
        flows.append(flow)
        start = float(rng.choice(_GRID))
        sim.call_at(start, sched.start_flow, flow)
        if rng.random() < 0.25:
            sim.call_at(start + float(rng.choice([0.0, 0.25, 1.5])), sched.cancel_flow, flow)
    zero = Flow("zero", 0.0, (hot,))
    flows.append(zero)
    sim.call_at(float(rng.choice(_GRID)), sched.start_flow, zero)

    def throttle(capacity, whole):
        hot.set_capacity(capacity)
        if whole:
            sched.capacity_changed()
        else:
            sched.capacity_changed(hot)

    for whole in (False, True):
        when = float(rng.choice(_GRID)) + float(rng.choice([0.0, 0.75]))
        sim.call_at(when, throttle, float(rng.integers(100, 400)), whole)
    for pause in sorted(rng.uniform(0.0, 4.0, size=int(rng.integers(0, 4)))):
        sim.run(until=float(pause))
    sim.run()
    assert all(flow.done or flow.cancelled for flow in flows)
    return _observed(sim, sched, flows, resources, probes)


def _observed(sim, sched, flows, resources, probes):
    """What a run computed, plus the engine's, allocator's and scheduler's
    counts."""
    allocator = sched.allocator
    return {
        "completions": [(flow.name, flow.completed_at, flow.cancelled) for flow in flows],
        "written": allocator.written,
        "bytes": {res.name: dict(res.bytes_by_tag) for res in resources},
        "events": sim.events_dispatched,
        "probes": probes,
        "counters": allocator.counters(),
    }, sim.events_inline, sched.in_place


@pytest.mark.parametrize("seed", range(32))
def test_inline_epochs_match_the_queue_only_twin(seed):
    """Running an epoch inline when nothing comes before it, and leaving
    the completion event to it, changes no completion instant, no written
    rate, no byte count, nothing a callback reads off the engine and not
    the number of dispatched events."""
    run, inline, _ = _mixed_run(Simulator, seed)
    twin, twin_inline, _ = _mixed_run(QueueOnlySimulator, seed)
    assert run == twin
    assert twin_inline == 0
    assert inline > 0


def _assert_elision_exact(run, twin, in_place, twin_in_place):
    """The run equals its never-quiet twin in everything it computed, its
    epochs and their written rates included; the twin dispatched one more
    event per epoch the run ran in place."""
    assert twin_in_place == 0
    assert {k: v for k, v in run.items() if k != "events"} == {
        k: v for k, v in twin.items() if k != "events"
    }
    assert twin["events"] - run["events"] == in_place


# -- quiet completions run their epoch in place: the engine against its never-quiet twin


@pytest.mark.parametrize("seed", range(32))
def test_emptied_departures_match_the_never_quiet_twin(seed):
    """Running a quiet completion's epoch in place, emptied or not, changes
    no completion instant, no epoch, no written rate, no byte count, no
    probe and no allocator counter; only the dispatched events fall, by
    the epochs run in place."""
    run, _, in_place = _mixed_run(Simulator, seed)
    twin, _, twin_in_place = _mixed_run(NeverQuietSimulator, seed)
    _assert_elision_exact(run, twin, in_place, twin_in_place)
    assert in_place > 0


def _scripted_run(sim_cls, script):
    """``script(sim, sched, manager, resources, flows, probes)`` sets a
    small scenario up; returns what :func:`_observed` reports."""
    sim = sim_cls()
    sched = InPlaceCountingScheduler(sim, allocator=_RecordingAllocator(sim))
    resources, flows, probes = [], [], []
    script(sim, sched, TransferManager(sched), resources, flows, probes)
    sim.run()
    return _observed(sim, sched, flows, resources, probes)


def _probe(sim, probes):
    return lambda *_: probes.append((sim.now, sim.peek_next_time(), sim.pending_events()))


def _lone_completion(sim, sched, manager, resources, flows, probes):
    resources += [Resource("up", 100.0), Resource("down", 80.0)]
    flows.append(Flow("lone", 400.0, tuple(resources)))
    flows[0].on_complete.append(_probe(sim, probes))
    sim.schedule(0.5, sched.start_flow, flows[0])
    sim.schedule(9.0, _probe(sim, probes))


def _zero_delay_callback(sim, sched, manager, resources, flows, probes):
    resources += [Resource("up", 100.0), Resource("down", 80.0)]
    flows.append(Flow("lone", 400.0, tuple(resources)))
    flows[0].on_complete.append(lambda _: sim.schedule(0.0, _probe(sim, probes)))
    sched.start_flow(flows[0])


def _stop_in_callback(sim, sched, manager, resources, flows, probes):
    resources += [Resource("up", 100.0), Resource("down", 80.0)]
    flows += [Flow("lone", 400.0, tuple(resources)), Flow("next", 300.0, tuple(resources))]
    flows[0].on_complete.append(lambda _: sim.stop())
    sched.start_flow(flows[0])
    sim.run()
    # Started between runs, at the stopped instant: it joins the epoch
    # the completion opened, which makes that epoch a succession.
    sched.start_flow(flows[1])
    flows[1].on_complete.append(_probe(sim, probes))


def _cancel_in_callback(sim, sched, manager, resources, flows, probes):
    resources += [Resource("up", 100.0), Resource("down", 80.0), Resource("own", 50.0)]
    flows += [Flow("lone", 400.0, tuple(resources[:2])), Flow("other", 900.0, resources[2:])]
    flows[0].on_complete.append(lambda _: sched.cancel_flow(flows[1]))
    flows[0].on_complete.append(_probe(sim, probes))
    for flow in flows:
        sched.start_flow(flow)


def _shared_link(sim, sched, manager, resources, flows, probes):
    resources += [Resource("down", 100.0)]
    flows += [Flow("short", 200.0, tuple(resources)), Flow("long", 600.0, tuple(resources))]
    for flow in flows:
        flow.on_complete.append(_probe(sim, probes))
        sched.start_flow(flow)


def _lone_transfer(sim, sched, manager, resources, flows, probes):
    resources += [Resource("up", 100.0), Resource("down", 80.0)]
    transfer = Transfer("t", tuple(resources), size=400.0, slice_size=200.0)
    transfer.on_slice.append(_probe(sim, probes))
    start_flow = sched.start_flow
    sched.start_flow = lambda flow: (flows.append(flow), start_flow(flow))[1]
    manager.start(transfer)


@pytest.mark.parametrize(
    "script, in_place, successions",
    [
        (_lone_completion, 1, 0),  # nothing else due: run in place
        (_zero_delay_callback, 0, 0),  # an event is queued at now
        (_stop_in_callback, 1, 1),  # the run stopped: only the second completion's runs here
        (_cancel_in_callback, 0, 0),  # the cancel's recompute is deferred
        (_shared_link, 2, 0),  # the survivor is re-rated in place, then empties its link
        (_lone_transfer, 1, 1),  # the boundary is a succession; the last slice's runs here
    ],
    ids=[
        "lone-completion",
        "zero-delay-callback",
        "stop-in-callback",
        "cancel-in-callback",
        "shared-link",
        "lone-transfer",
    ],
)
def test_emptied_departure_cases(script, in_place, successions):
    run, _, run_in_place = _scripted_run(Simulator, script)
    twin, _, twin_in_place = _scripted_run(NeverQuietSimulator, script)
    _assert_elision_exact(run, twin, run_in_place, twin_in_place)
    assert run_in_place == in_place
    assert run["counters"][1] == successions
    assert run["probes"]
