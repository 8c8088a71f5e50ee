"""Epochs answered without a fill, where they actually happen.

Successions happen at slice boundaries, inert departures wherever a flow
leaves without freeing the bottleneck of anyone left, inert arrivals
wherever a flow starts in slack that every flow beside it leaves.

``RateAllocator`` answers an epoch whose arrivals pair one to one with
its departures over the same resources without a fill
(``repro.sim.allocator``, order 4). ``TransferManager`` produces exactly
such epochs — it launches a transfer's next slice inside the previous
slice's completion callback, at the same instant, over the same
``transfer.resources`` tuple, and the helpers of a star hand off at the
same instants — and that is what the simulator's speed on repair
workloads now rests on. The first half pins that coupling on a bare
scheduler; the second runs whole repair
experiments, and the ``hot_mix`` recipe, on
:class:`tests.oracles.AuditedRateAllocator`, which checks every succession,
inert departure and inert arrival against a max-min certificate and the
reference fill, and every recorded bottleneck after every epoch.
"""

from collections import Counter

import pytest

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_repair_experiment
from repro.obs import MetricsRegistry, Tracer, build_report, set_registry
from repro.sim import (
    FlowScheduler,
    RateAllocator,
    Resource,
    Simulator,
    Transfer,
    TransferManager,
)
from tests.oracles import AuditedRateAllocator, ReferenceRateAllocator, hot_link_mix


def _run_pipeline(allocator):
    """Three sliced transfers sharing a downlink, the third relaying the
    first's bytes slice by slice (and listing that downlink twice, which
    the allocator deduplicates); returns the transfers and every slice
    flow in launch order."""
    sim = Simulator()
    sched = FlowScheduler(sim, allocator=allocator)
    manager = TransferManager(sched)
    launched = []
    start_flow = sched.start_flow
    sched.start_flow = lambda flow: (launched.append(flow), start_flow(flow))[1]
    # Power-of-two capacities shared by at most two flows: every share is
    # exact, so the reference's fresh DFS order at each boundary cannot
    # move a bystander and the two timelines may be compared with ``==``.
    up_a, up_b = Resource("up-a", 128.0), Resource("up-b", 64.0)
    down, disk = Resource("down", 96.0), Resource("disk", 32.0)
    first = Transfer("a->c", (up_a, down), size=1200.0, slice_size=50.0)
    second = Transfer("b->c", (up_b, down), size=910.0, slice_size=70.0)
    relay = Transfer("c->disk", (down, disk, down), size=600.0, slice_size=40.0)
    relay.depends_on(first)
    for transfer in (first, second, relay):
        manager.start(transfer)
    sim.run()
    assert all(t.done for t in (first, second, relay))
    return (first, second, relay), launched


def _slices(transfer, launched):
    return [flow for flow in launched if flow.name.startswith(f"{transfer.name}[")]


def test_slice_pipeline_is_a_train_of_successions():
    allocator = RateAllocator()
    transfers, launched = _run_pipeline(allocator)
    assert len(launched) == sum(t.num_slices for t in transfers)
    for transfer in transfers:
        slices = _slices(transfer, launched)
        assert len(slices) == transfer.num_slices
        # Same tuple, slice after slice: what makes a boundary a succession.
        assert all(flow.resources == transfer.resources for flow in slices)
    # An instant is one succession exactly when every flow that starts or
    # finishes there is half of a slice boundary (a relay slice released
    # by a finished one is not): counted here from the timeline alone,
    # then compared.
    busy = Counter(t for flow in launched for t in (flow.started_at, flow.completed_at))
    handoffs = Counter()
    for transfer in transfers:
        slices = _slices(transfer, launched)
        for done, successor in zip(slices, slices[1:]):
            if transfer is not transfers[2]:  # ungated: the next slice starts at once
                assert successor.started_at == done.completed_at
            if successor.started_at == done.completed_at:
                handoffs[done.completed_at] += 2
    boundaries = sum(busy[t] == n for t, n in handoffs.items())
    assert allocator.successions == boundaries >= 22
    assert allocator.fills < len(launched) - boundaries


def test_slice_pipeline_same_instants_as_reference_allocator():
    (_, current), (_, reference) = (
        _run_pipeline(RateAllocator()), _run_pipeline(ReferenceRateAllocator())
    )
    assert [(f.name, f.started_at, f.completed_at) for f in current] == [
        (f.name, f.started_at, f.completed_at) for f in reference
    ]


STAR_SLICES = 12


def _run_star(allocator, helpers):
    """Conventional repair's star on a bare scheduler: ``helpers`` equal
    sliced transfers, each from its own uplink into one requestor's
    downlink, which binds them all. Power-of-two capacities make every
    share exact, so every helper hands a slice off at the same instants.
    Returns every slice flow in launch order and the metrics registry."""
    sim = Simulator()
    sched = FlowScheduler(sim, allocator=allocator)
    manager = TransferManager(sched)
    launched = []
    start_flow = sched.start_flow
    sched.start_flow = lambda flow: (launched.append(flow), start_flow(flow))[1]
    down = Resource("requestor.down", 256.0)
    transfers = [
        Transfer(f"h{i}->req", (Resource(f"h{i}.up", 256.0), down),
                 size=64.0 * STAR_SLICES, slice_size=64.0)
        for i in range(helpers)
    ]
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for transfer in transfers:
            manager.start(transfer)
        sim.run()
    finally:
        set_registry(previous)
    assert all(t.done for t in transfers)
    return launched, registry


@pytest.mark.parametrize("helpers", [2, 4, 8])
def test_simultaneous_slice_boundaries_are_one_succession(helpers):
    """Each instant at which every helper hands a slice off is one
    succession epoch, whatever the number of helpers; only the epochs that
    are not boundaries run a fill, and every slice starts and finishes at
    the reference allocator's instants, to the bit. (Who goes first among
    same-instant completions may differ: a succession settles its
    arrivals in arrival order, the reference's re-fill in its fresh
    discovery order.)"""
    allocator = RateAllocator()
    launched, registry = _run_star(allocator, helpers)
    starts = Counter(flow.started_at for flow in launched)
    assert set(starts.values()) == {helpers}  # every instant is shared by all
    boundaries = len(starts) - 1  # all but the first launch
    assert boundaries == STAR_SLICES - 1
    assert allocator.successions == boundaries
    # The last instant empties the downlink: a pass that runs no fill.
    assert allocator.fills == registry.counter("alloc.passes").value - boundaries - 1
    reference, _ = _run_star(ReferenceRateAllocator(), helpers)
    assert {f.name: (f.started_at, f.completed_at) for f in launched} == {
        f.name: (f.started_at, f.completed_at) for f in reference
    }


def _observed_pipeline(allocator):
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        _run_pipeline(allocator)
    finally:
        set_registry(previous)
    return registry


def test_registry_and_report_show_fills_and_successions():
    allocator = RateAllocator()
    registry = _observed_pipeline(allocator)
    assert registry.counter("alloc.fills").value == allocator.fills > 0
    assert registry.counter("alloc.successions").value == allocator.successions > 0
    assert registry.counter("alloc.passes").value > allocator.fills + allocator.successions
    report = build_report(Tracer(), registry)
    assert "alloc.fills" in report and "alloc.successions" in report


def test_oracle_allocators_count_no_fills_under_a_registry():
    registry = _observed_pipeline(ReferenceRateAllocator())
    assert registry.counter("alloc.passes").value > 0
    assert registry.counter("alloc.fills").value == 0
    assert registry.counter("alloc.successions").value == 0


# -- whole experiments under the audit --------------------------------------


def _audited_run(config, algorithm, rel_tol):
    testbed = Testbed.build(config)
    assert len(testbed.cluster.flows.allocator) == 0  # nothing rated yet
    audit = testbed.cluster.flows.allocator = AuditedRateAllocator(rel_tol=rel_tol)
    result = run_repair_experiment(config, algorithm, scenario=testbed)
    assert result.repair_time > 0
    assert audit.audited == audit.successions > 0
    assert audit.inert_audited == audit.inert > 0
    assert audit.arrival_audited == audit.inert_arrivals > 0
    return audit


@pytest.mark.parametrize("algorithm", ["ChameleonEC", "CR"])
def test_successions_equal_refill_at_default_bandwidth(algorithm):
    """10 Gb/s links: every succession, inert departure and inert arrival
    of a full repair under foreground stands on exactly (``==``) what a
    re-fill of its component computes, and on a max-min optimum by the
    fill-independent certificate."""
    audit = _audited_run(ExperimentConfig.scaled(0.03), algorithm, rel_tol=0.0)
    assert (audit.flapped, audit.worst_rel) == (0, 0.0)
    assert audit.inert_flapped == audit.arrival_flapped == 0


def test_successions_within_an_ulp_of_refill_on_1gbps_ppr():
    """The exp13 cell that moves: 1 Gb/s links divide inexactly among
    tied bottlenecks (``1.25e8 / 9``), and a re-fill in a fresh DFS order
    moves bystanders by an ulp where the standing solution keeps them.
    Every succession is still a certified optimum within 1e-12; how many
    a re-fill would have disturbed is printed (``-s``), not hidden."""
    config = ExperimentConfig.scaled(0.05, link_gbps=1.0)
    audit = _audited_run(config, "PPR", rel_tol=1e-12)
    print(
        f"\nexp13 1 Gb/s x PPR: {audit.flapped} of {audit.audited} successions, "
        f"{audit.inert_flapped} of {audit.inert_audited} inert departures and "
        f"{audit.arrival_flapped} of {audit.arrival_audited} inert arrivals would have "
        f"flapped a flow (worst relative move {audit.worst_rel:.3g})"
    )
    assert 0 < audit.flapped < audit.audited
    assert 0.0 < audit.worst_rel <= 1e-12


def test_inert_departures_on_the_hot_mix_recipe_stand_within_an_ulp():
    """The benchmark's hot-link mix at 10 nodes / 200 flows, ten seeds:
    every inert departure and inert arrival leaves a certified optimum
    within 1e-12 of what a re-fill computes, and every recorded bottleneck
    certifies its flow. Flaps are printed (``-s``); at this size there
    are none, on the full 50-node recipe 4 of seed 0's 1 220 inert
    departures and 2 of its 1 177 inert arrivals move 10 flows by at most
    1.6e-16."""
    audited = flapped = arrivals = arrivals_flapped = 0
    for seed in range(10):
        sim = Simulator()
        audit = AuditedRateAllocator(rel_tol=1e-12)
        flows = hot_link_mix(FlowScheduler(sim, allocator=audit), 10, 200, seed)
        sim.run()
        assert all(flow.done for flow in flows)
        assert audit.inert_audited == audit.inert
        assert audit.arrival_audited == audit.inert_arrivals
        audited += audit.inert_audited
        flapped += audit.inert_flapped
        arrivals += audit.arrival_audited
        arrivals_flapped += audit.arrival_flapped
    print(
        f"\nhot_mix 10 x 200, seeds 0-9: {flapped} of {audited} inert departures and "
        f"{arrivals_flapped} of {arrivals} inert arrivals flapped"
    )
    assert audited > 0
    assert arrivals > 0


def test_registry_and_report_show_inert_departures():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        sim = Simulator()
        allocator = RateAllocator()
        hot_link_mix(FlowScheduler(sim, allocator=allocator), 10, 200, seed=0)
        sim.run()
    finally:
        set_registry(previous)
    assert registry.counter("alloc.inert").value == allocator.inert > 0
    assert registry.counter("alloc.fills").value == allocator.fills
    assert "alloc.inert" in build_report(Tracer(), registry)
    assert registry.counter("alloc.inert_arrivals").value == allocator.inert_arrivals > 0
    assert "alloc.inert_arrivals" in build_report(Tracer(), registry)
