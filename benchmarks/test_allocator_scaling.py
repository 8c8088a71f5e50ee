"""Micro-benchmark: incremental allocator vs from-scratch on flow churn.

Drives a ~1000-flow churn workload (scaled by ``REPRO_BENCH_SCALE``)
over partitioned resource groups — the shape repair traffic takes, where
flows cluster on a few links and the bipartite flow/resource graph
splits into many small connected components. The incremental
:class:`RateAllocator` recomputes only the dirty component per mutation;
the :class:`FromScratchAllocator` re-rates every active flow. The
``alloc.flows_touched`` counter measures exactly that work, and the
incremental allocator must do at least 3x less of it.

A second case drives sliced transfers, where most epochs are a slice
boundary — one flow replaced by an identical one — and the allocator
must answer them as successions, without a fill (``alloc.fills`` against
``alloc.passes``). A third runs the benchmark's ``hot_mix`` recipe at 10
nodes / 200 flows, where some departures free no remaining flow's
bottleneck and some arrivals bind no other flow, and both must be
answered as inert, without a fill, and where
departures keep raising rates on the hot links, so the scheduler's ETA
heap must be compacted to stay within ``4 * active + 64`` entries; at
20 nodes / 800 flows its completion timeline must equal the reference
allocator's bit for bit. A
fourth has the shape of foreground traffic, closed-loop single-slice
requests on disjoint node pairs beside bulk flows on one hot link, where
nearly every epoch is due before anything else and must close inline,
without a trip through the event queue (``sim.events_inline`` against
``alloc.passes``), and where a completion with nothing else due must run
its epoch in place, with no deferred event at all (``sim.events_dispatched``
against the never-quiet twin engine's); the same clients sent through
``TransferManager.request``, which runs each request as one flow, must
match their ``Transfer`` run in completions and counts. An epoch run in
place is a pass that runs neither through the queue nor inline; the gate
on queue-free epochs adds those epochs back. A fifth repairs one
node with CR and no foreground, where the helpers' slice boundaries share
instants, and pins its exact ``alloc.fills`` and ``alloc.successions``.
The assertions are counts and simulated instants, not timings.
"""

import numpy as np
from conftest import emit

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_repair_experiment
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sim import (
    Flow,
    FlowScheduler,
    RateAllocator,
    Resource,
    Simulator,
    Transfer,
    TransferManager,
)
from tests.oracles import (
    FromScratchAllocator,
    InPlaceCountingScheduler,
    NeverQuietSimulator,
    QueueOnlySimulator,
    ReferenceRateAllocator,
    hot_link_mix,
)

RESOURCES_PER_GROUP = 4
CHURN_WINDOW_S = 30.0


def _run_churn(allocator, num_flows, num_groups, seed=7):
    """Run one churn workload; returns (registry, completion times)."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    sched = FlowScheduler(sim, allocator=allocator)
    groups = [
        [
            Resource(f"g{g}r{i}", float(rng.integers(50, 200)))
            for i in range(RESOURCES_PER_GROUP)
        ]
        for g in range(num_groups)
    ]
    flows = []
    for i in range(num_flows):
        group = groups[int(rng.integers(0, num_groups))]
        picks = rng.choice(RESOURCES_PER_GROUP, size=2, replace=False)
        flow = Flow(
            f"f{i}",
            float(rng.integers(20, 400)),
            tuple(group[int(j)] for j in picks),
        )
        flows.append(flow)
        sim.schedule(
            float(rng.uniform(0, CHURN_WINDOW_S)),
            lambda f=flow: sched.start_flow(f),
        )
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        sim.run()
    finally:
        set_registry(previous)
    assert all(f.done for f in flows)
    return registry, [f.completed_at for f in flows]


def test_allocator_churn_scaling(benchmark, bench_scale):
    num_flows = max(150, int(1000 * bench_scale))
    num_groups = max(6, num_flows // 40)

    incremental = benchmark.pedantic(
        _run_churn,
        args=(RateAllocator(), num_flows, num_groups),
        rounds=1,
        iterations=1,
    )
    baseline = _run_churn(FromScratchAllocator(), num_flows, num_groups)

    rows = []
    for label, (registry, _) in (("incremental", incremental),
                                 ("from-scratch", baseline)):
        component = registry.histogram("alloc.component_size")
        rows.append([
            label,
            int(registry.counter("alloc.passes").value),
            int(registry.counter("alloc.flows_touched").value),
            round(component.mean, 2),
            round(component.max, 0),
        ])
    emit(
        benchmark,
        f"Allocator scaling: {num_flows}-flow churn over {num_groups} "
        "resource groups",
        ["allocator", "passes", "flows_touched", "mean component", "max"],
        rows,
    )

    # Both allocators must produce the same simulation.
    for fast, oracle in zip(incremental[1], baseline[1]):
        assert fast == oracle or abs(fast - oracle) < 1e-6

    touched_fast = incremental[0].counter("alloc.flows_touched").value
    touched_slow = baseline[0].counter("alloc.flows_touched").value
    assert touched_slow >= 3 * touched_fast, (
        f"expected >=3x fewer flow-rate recomputations, got "
        f"{touched_slow:.0f} vs {touched_fast:.0f}"
    )


NUM_TRANSFERS = 8
SLICES_PER_TRANSFER = 32


def _run_sliced_pipeline(allocator):
    """8 transfers x 32 slices into two shared downlinks; unequal slice
    sizes and link capacities keep their slice boundaries apart. Returns
    (registry, every slice's (name, completion time) in completion order)."""
    sim = Simulator()
    manager = TransferManager(FlowScheduler(sim, allocator=allocator))
    completions = []
    downlinks = [Resource("down0", 400.0), Resource("down1", 520.0)]
    transfers = []
    for i in range(NUM_TRANSFERS):
        uplink = Resource(f"up{i}", 90.0 + 17.0 * i)
        slice_size = 40.0 + 7.0 * i
        transfers.append(Transfer(
            f"t{i}", (uplink, downlinks[i % 2]),
            size=slice_size * SLICES_PER_TRANSFER, slice_size=slice_size,
        ))
        transfers[-1].on_slice.append(
            lambda transfer, idx: completions.append((transfer.name, idx, sim.now))
        )
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for transfer in transfers:
            manager.start(transfer)
        sim.run()
    finally:
        set_registry(previous)
    assert all(t.done and t.num_slices == SLICES_PER_TRANSFER for t in transfers)
    return registry, completions


def test_sliced_pipeline_skips_the_fill_at_slice_boundaries(benchmark):
    registry, completions = benchmark.pedantic(
        _run_sliced_pipeline, args=(RateAllocator(),), rounds=1, iterations=1
    )
    _, reference = _run_sliced_pipeline(ReferenceRateAllocator())

    passes, fills, successions = (
        int(registry.counter(f"alloc.{name}").value)
        for name in ("passes", "fills", "successions")
    )
    emit(
        benchmark,
        f"Allocator on a slice pipeline: {NUM_TRANSFERS} transfers x "
        f"{SLICES_PER_TRANSFER} slices",
        ["passes", "fills", "successions", "fills / passes"],
        [[passes, fills, successions, round(fills / passes, 3)]],
    )
    assert len(completions) == NUM_TRANSFERS * SLICES_PER_TRANSFER
    assert completions == reference
    # Every slice completion opens an epoch.
    assert passes >= len(completions)
    assert fills <= 0.25 * passes, f"{fills} fills in {passes} epochs"


class _BoundedHeapScheduler(FlowScheduler):
    """Asserts the ETA heap's bound after every recompute."""

    def _do_recompute(self):
        super()._do_recompute()
        assert len(self._eta_heap) <= 4 * len(self.active) + 64, (
            len(self._eta_heap), len(self.active)
        )


def _run_hot_link_mix(allocator, nodes=10, num_flows=200):
    sim = Simulator()
    flows = hot_link_mix(_BoundedHeapScheduler(sim, allocator=allocator), nodes, num_flows)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        sim.run()
    finally:
        set_registry(previous)
    assert all(flow.done for flow in flows)
    return registry, [flow.completed_at for flow in flows]


def test_hot_link_mix_answers_inert_departures_without_a_fill(benchmark):
    registry, completions = benchmark.pedantic(
        _run_hot_link_mix, args=(RateAllocator(),), rounds=1, iterations=1
    )
    _, reference = _run_hot_link_mix(ReferenceRateAllocator())

    passes, fills, inert, inert_arrivals = (
        int(registry.counter(f"alloc.{name}").value)
        for name in ("passes", "fills", "inert", "inert_arrivals")
    )
    emit(
        benchmark,
        "Allocator on the hot-link mix: 10 nodes x 200 flows",
        ["passes", "fills", "inert", "inert_arrivals"],
        [[passes, fills, inert, inert_arrivals]],
    )
    assert inert >= 1
    assert inert_arrivals >= 1
    for done, want in zip(completions, reference):
        assert abs(done - want) <= 1e-12 * want, (done, want)


def test_hot_mix_timeline_equals_the_reference_bit_for_bit():
    """The ``hot_mix`` recipe at 20 nodes / 800 flows, one contention
    component on the hot links: every completion instant on
    ``RateAllocator`` is ``==`` to the reference allocator's, an oracle
    for the fill's rates that does not lean on the committed digest.

    It cannot see the fill's orders 1-2 (``repro.sim.allocator``): at
    seed 0, at 10 x 200 and 20 x 800, with 100 or 125 MB/s links or a
    different capacity per link, taking the last tied minimum instead
    of the first, or reversing a round's member order, left every
    completion instant ``==`` the reference's. Per-flow instants of
    pre-scheduled starts do not depend on either order;
    ``tests/test_allocator_equivalence.py`` is their guard."""
    _, timeline = _run_hot_link_mix(RateAllocator(), 20, 800)
    _, reference = _run_hot_link_mix(ReferenceRateAllocator(), 20, 800)
    assert timeline == reference


NUM_PAIRS = 16
REQUESTS_PER_CLIENT = 40


def _run_requests(sim_cls, as_transfers=True):
    """One closed-loop client per disjoint node pair issues single-slice
    requests over the pair's uplink and downlink, thinking between them
    (every seventh not at all); four bulk transfers share one hot link.
    Each request is a released ``Transfer``, or with ``as_transfers``
    False goes through ``TransferManager.request``, which runs it as one
    flow. Returns (registry, every request's (name, completion time) in
    completion order, the epochs run in place)."""
    sim = sim_cls()
    scheduler = InPlaceCountingScheduler(sim)
    manager = TransferManager(scheduler)
    completions = []

    def client(pair):
        up = Resource(f"n{pair}.up", 100.0 + 3.0 * pair)
        down = Resource(f"n{pair + NUM_PAIRS}.down", 120.0 + 5.0 * pair)

        def issue(k):
            if k == REQUESTS_PER_CLIENT:
                return
            name, size = f"q{pair}.{k}", 4.0 + (7 * pair + 13 * k) % 29
            think = 0.0 if k % 7 == 6 else 0.01 * (1 + (pair + k) % 5)

            def done():
                completions.append((name, sim.now))
                sim.schedule(think, issue, k + 1)

            if as_transfers:
                request = Transfer(name, (up, down), size=size, slice_size=size)
                request.on_complete.append(lambda _t: done())
                manager.start(request)
            else:
                manager.request(name, pair, pair + NUM_PAIRS, (up, down), size, size,
                                "foreground", done)

        return issue

    hot = Resource("hot", 300.0)
    for i in range(4):
        manager.start(Transfer(
            f"bulk{i}", (Resource(f"b{i}.up", 150.0 + 10.0 * i), hot),
            size=400.0 + 50.0 * i, slice_size=100.0,
        ))
    for pair in range(NUM_PAIRS):
        sim.schedule(0.003 * pair, client(pair), 0)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        sim.run()
    finally:
        set_registry(previous)
    assert len(completions) == NUM_PAIRS * REQUESTS_PER_CLIENT
    return registry, completions, scheduler.in_place


def _counts(registry):
    return tuple(
        int(registry.counter(name).value)
        for name in ("alloc.passes", "sim.events_inline", "sim.events_dispatched")
    )


def test_request_epochs_close_inline(benchmark):
    registry, completions, in_place = benchmark.pedantic(
        _run_requests, args=(Simulator,), rounds=1, iterations=1
    )
    twin_registry, twin_completions, _ = _run_requests(QueueOnlySimulator)

    # Only the flow scheduler's recompute is deferred here.
    passes, inline, events = _counts(registry)
    # An epoch run in place took no trip through the queue either.
    queue_free = inline + in_place
    emit(
        benchmark,
        f"Request epochs: {NUM_PAIRS} closed-loop clients x {REQUESTS_PER_CLIENT} "
        "single-slice requests beside a hot link",
        ["passes", "inline", "in place", "queue-free / passes", "events"],
        [[passes, inline, in_place, round(queue_free / passes, 3), events]],
    )
    assert completions == twin_completions
    assert events == twin_registry.counter("sim.events_dispatched").value
    assert twin_registry.counter("sim.events_inline").value == 0
    assert queue_free >= 0.9 * passes, f"{queue_free} of {passes} epochs queue-free"


def test_request_entry_point_equals_transfers():
    """The same clients through ``TransferManager.request``, which runs a
    single-slice request as one flow: the same completions, passes,
    inline epochs, dispatched events and epochs run in place as when
    every request is a ``Transfer``."""
    registry, completions, in_place = _run_requests(Simulator, as_transfers=False)
    twin_registry, twin_completions, twin_in_place = _run_requests(Simulator)
    assert completions == twin_completions
    assert _counts(registry) == _counts(twin_registry)
    assert in_place == twin_in_place > 0
    assert registry.counter("transfers.completed").value == 4
    assert twin_registry.counter("transfers.completed").value == 4 + len(completions)


def test_request_departures_close_in_place():
    """Against the never-quiet twin, which defers every epoch: the same
    completions and passes, one event fewer per epoch run in place (the
    twin runs each of them inline instead), and on the twin the inline
    gate read as before."""
    registry, completions, in_place = _run_requests(Simulator)
    twin_registry, twin_completions, twin_in_place = _run_requests(NeverQuietSimulator)
    passes, inline, events = _counts(registry)
    twin_passes, twin_inline, twin_events = _counts(twin_registry)
    assert completions == twin_completions
    assert twin_in_place == 0 < in_place
    assert twin_passes == passes
    assert twin_events - events == in_place
    assert twin_inline - inline == in_place
    assert twin_inline >= 0.9 * twin_passes, f"{twin_inline} of {twin_passes} epochs inline"


#: The CR repair below runs at this scale whatever ``REPRO_BENCH_SCALE``
#: says: its counts are pinned exactly.
CR_SCALE = 0.05


def _run_cr_repair(allocator=None):
    """Conventional repair of one failed node at ``CR_SCALE``, no
    foreground, optionally on ``allocator``; returns (registry, result)."""
    config = ExperimentConfig.scaled(CR_SCALE)
    testbed = Testbed.build(config)
    if allocator is not None:
        testbed.cluster.flows.allocator = allocator
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        result = run_repair_experiment(config, "CR", foreground=False, scenario=testbed)
    finally:
        set_registry(previous)
    return registry, result


def test_cr_repair_hands_simultaneous_slices_off_without_a_fill(benchmark):
    """CR's star sends every helper's slices into one requestor at the same
    pace, so many slice boundaries share an instant; each such instant is
    one succession. The counts are pinned exactly (a fill that comes back
    moves them; every epoch is a pass, an emptied one too), and the repair
    takes the reference allocator's time."""
    registry, result = benchmark.pedantic(_run_cr_repair, rounds=1, iterations=1)
    passes, fills, successions = (
        int(registry.counter(f"alloc.{name}").value)
        for name in ("passes", "fills", "successions")
    )
    emit(
        benchmark,
        f"Allocator on a CR repair at scale {CR_SCALE}, no foreground",
        ["passes", "fills", "successions"],
        [[passes, fills, successions]],
    )
    assert (passes, fills, successions) == (433, 74, 264)
    _, reference = _run_cr_repair(ReferenceRateAllocator())
    assert result.repair_time == reference.repair_time
