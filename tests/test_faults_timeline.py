"""Unit tests for the seedable fault timeline (repro.faults)."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.faults import (
    BandwidthDegradation,
    FaultTimeline,
    FlowInterruption,
    NodeCrash,
)
from repro.sim.resources import REPAIR_TAG

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(num_nodes=12):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), 20, cluster.storage_ids,
                          chunk_size=CHUNK, seed=0)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


def make_repair_transfer(cluster, src=1, dst=2, size=500 * MB):
    transfer = cluster.make_transfer(
        src, dst, size, SLICE, tag=REPAIR_TAG, read_disk=True,
        name=f"rep-{src}->{dst}",
    )
    cluster.transfers.start(transfer)
    return transfer


class TestBuilding:
    def test_fluent_builders_accumulate_events(self):
        tl = (
            FaultTimeline(seed=1)
            .crash(2.0, 3)
            .degrade(1.0, 4, factor=0.5, duration=2.0)
            .degrade(3.0, 5, factor=0.1, duration=1.0)
            .interrupt_flow(4.0)
        )
        kinds = [type(e) for e in tl.sorted_events()]
        assert kinds == [
            BandwidthDegradation, NodeCrash, BandwidthDegradation, FlowInterruption,
        ]

    def test_validation(self):
        tl = FaultTimeline()
        with pytest.raises(SimulationError):
            tl.crash(-1.0, 0)
        with pytest.raises(SimulationError):
            tl.degrade(0.0, 0, factor=0.0, duration=1.0)
        with pytest.raises(SimulationError):
            tl.degrade(0.0, 0, factor=0.5, duration=0.0)
        with pytest.raises(SimulationError):
            tl.degrade(0.0, 0, factor=2.0, duration=1.0)
        with pytest.raises(SimulationError):
            tl.interrupt_flow(0.0, count=0)
        with pytest.raises(SimulationError):
            tl.churn(nodes=[], horizon=10.0)
        with pytest.raises(SimulationError):
            tl.churn(nodes=[1, 2], horizon=10.0, crashes=3)

    def test_same_seed_same_churn_schedule(self):
        def build(seed):
            return FaultTimeline(seed=seed).churn(
                nodes=list(range(10)), horizon=20.0,
                crashes=2, stragglers=3, degradations=2, interruptions=1,
            )

        a, b = build(7), build(7)
        assert a.sorted_events() == b.sorted_events()
        c = build(8)
        assert c.sorted_events() != a.sorted_events()

    def test_crash_targets_drawn_without_replacement(self):
        tl = FaultTimeline(seed=3).churn(nodes=[0, 1, 2], horizon=5.0, crashes=3)
        crashed = [e.node_id for e in tl.events if isinstance(e, NodeCrash)]
        assert sorted(crashed) == [0, 1, 2]


class TestArming:
    def test_cannot_arm_twice_or_add_after_arm(self):
        cluster, _, injector = make_env()
        tl = FaultTimeline().degrade(1.0, 2, factor=0.1, duration=1.0)
        tl.arm(cluster, injector)
        assert tl.armed
        with pytest.raises(SimulationError):
            tl.arm(cluster, injector)
        with pytest.raises(SimulationError):
            tl.degrade(2.0, 3, factor=0.1, duration=1.0)

    def test_crash_requires_injector(self):
        cluster, _, _ = make_env()
        tl = FaultTimeline().crash(1.0, 2)
        with pytest.raises(SimulationError, match="FailureInjector"):
            tl.arm(cluster)

    def test_offsets_are_relative_to_arm_time(self):
        cluster, _, injector = make_env()
        cluster.sim.run(until=5.0)
        tl = FaultTimeline().crash(2.0, 3)
        tl.arm(cluster, injector)
        cluster.sim.run(until=6.9)
        assert cluster.node(3).alive
        cluster.sim.run(until=7.1)
        assert not cluster.node(3).alive


class TestDegradation:
    def test_degrade_then_recover_restores_capacity(self):
        cluster, _, injector = make_env()
        node = cluster.node(4)
        base = node.uplink.capacity
        tl = FaultTimeline().degrade(1.0, 4, factor=0.25, duration=2.0)
        tl.arm(cluster, injector)
        cluster.sim.run(until=1.5)
        assert node.uplink.capacity == pytest.approx(base * 0.25)
        assert node.downlink.capacity == pytest.approx(base * 0.25)
        cluster.sim.run(until=3.5)
        assert node.uplink.capacity == pytest.approx(base)
        assert node.downlink.capacity == pytest.approx(base)

    def test_overlapping_degradations_compose_and_unwind(self):
        cluster, _, injector = make_env()
        node = cluster.node(4)
        base = node.uplink.capacity
        tl = (
            FaultTimeline()
            .degrade(1.0, 4, factor=0.5, duration=4.0)
            .degrade(2.0, 4, factor=0.5, duration=1.0)
        )
        tl.arm(cluster, injector)
        cluster.sim.run(until=2.5)
        assert node.uplink.capacity == pytest.approx(base * 0.25)
        cluster.sim.run(until=3.5)  # inner fault recovered, outer still active
        assert node.uplink.capacity == pytest.approx(base * 0.5)
        cluster.sim.run(until=5.5)
        assert node.uplink.capacity == pytest.approx(base)

    def test_straggler_throttles_links_for_duration(self):
        cluster, _, injector = make_env()
        node = cluster.node(6)
        base = node.uplink.capacity
        tl = FaultTimeline().degrade(1.0, 6, factor=0.1, duration=2.0)
        tl.arm(cluster, injector)
        events = []
        tl.on("degraded", lambda t, **kw: events.append(("deg", kw["node_id"])))
        tl.on("recovered", lambda t, **kw: events.append(("rec", kw["node_id"])))
        cluster.sim.run(until=1.5)
        assert node.uplink.capacity == pytest.approx(base * 0.1)
        cluster.sim.run(until=4.0)
        assert node.uplink.capacity == pytest.approx(base)
        assert events == [("deg", 6), ("rec", 6)]


class TestCrashAndInterruption:
    def test_crash_fails_repair_transfers_crossing_the_node(self):
        cluster, _, injector = make_env()
        hit = make_repair_transfer(cluster, src=3, dst=5)
        unrelated = make_repair_transfer(cluster, src=7, dst=8)
        foreground = cluster.make_transfer(3, 6, CHUNK, SLICE, tag="foreground")
        cluster.transfers.start(foreground)
        tl = FaultTimeline().crash(1.0, 3)
        tl.arm(cluster, injector)
        crashes = []
        tl.on("node_crashed", lambda t, **kw: crashes.append(kw))
        cluster.sim.run(until=1.5)
        assert not cluster.node(3).alive
        assert hit.failed and "crashed" in hit.failure_reason
        assert not unrelated.failed
        assert not foreground.failed  # foreground continues degraded
        assert len(crashes) == 1
        assert crashes[0]["node_id"] == 3
        assert hit in crashes[0]["failed_transfers"]
        assert crashes[0]["report"].failed_nodes == [3]

    def test_crash_is_idempotent(self):
        cluster, _, injector = make_env()
        tl = FaultTimeline().crash(1.0, 3).crash(2.0, 3)
        tl.arm(cluster, injector)
        crashes = []
        tl.on("node_crashed", lambda t, **kw: crashes.append(kw["node_id"]))
        cluster.sim.run(until=3.0)
        assert crashes == [3]  # the second crash finds a dead node: no event

    def test_interruption_kills_only_repair_flows(self):
        cluster, _, injector = make_env()
        repair = make_repair_transfer(cluster, src=1, dst=2)
        foreground = cluster.make_transfer(1, 4, CHUNK, SLICE, tag="foreground")
        cluster.transfers.start(foreground)
        tl = FaultTimeline(seed=5).interrupt_flow(1.0)
        tl.arm(cluster, injector)
        interrupted = []
        tl.on("flow_interrupted", lambda t, **kw: interrupted.extend(kw["transfers"]))
        cluster.sim.run(until=1.5)
        assert repair.failed
        assert not foreground.failed
        assert interrupted == [repair]

    def test_interruption_with_no_live_repairs_is_a_noop(self):
        cluster, _, injector = make_env()
        tl = FaultTimeline().interrupt_flow(1.0)
        tl.arm(cluster, injector)
        cluster.sim.run(until=2.0)
        assert tl.injected  # executed without raising


class TestDeterministicInjection:
    def test_same_seed_interrupts_same_victims(self):
        def run(seed):
            cluster, _, injector = make_env()
            transfers = [
                make_repair_transfer(cluster, src=i, dst=i + 4, size=100 * MB)
                for i in range(4)
            ]
            tl = FaultTimeline(seed=seed).interrupt_flow(0.5, count=2)
            tl.arm(cluster, injector)
            cluster.sim.run(until=1.0)
            return [i for i, t in enumerate(transfers) if t.failed]

        assert run(9) == run(9)


class TestFluctuate:
    def test_builds_only_degradations_inside_the_horizon(self):
        tl = FaultTimeline(seed=5).fluctuate(
            nodes=list(range(8)), horizon=20.0, period=5.0,
            amplitude=(0.4, 0.8), fraction=0.5,
        )
        assert tl.events
        for event in tl.events:
            assert isinstance(event, BandwidthDegradation)
            assert 0.0 <= event.at < 20.0
            assert event.at + event.duration <= 20.0 + 1e-9
            assert 0.4 <= event.factor <= 0.8

    def test_wave_count_and_victims_per_wave(self):
        tl = FaultTimeline(seed=5).fluctuate(
            nodes=list(range(10)), horizon=20.0, period=5.0, fraction=0.4,
        )
        # 4 waves x round(0.4 * 10) victims.
        assert len(tl.events) == 4 * 4

    def test_same_seed_same_waves(self):
        def build(seed):
            return FaultTimeline(seed=seed).fluctuate(
                nodes=list(range(6)), horizon=10.0, period=2.5,
            ).sorted_events()

        assert build(11) == build(11)
        assert build(11) != build(12)

    def test_validation(self):
        tl = FaultTimeline()
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[1], horizon=0.0, period=1.0)
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[1], horizon=5.0, period=6.0)
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[], horizon=5.0, period=1.0)
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[1], horizon=5.0, period=1.0, amplitude=(0.0, 0.5))
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[1], horizon=5.0, period=1.0, amplitude=(0.9, 0.5))
        with pytest.raises(SimulationError):
            tl.fluctuate(nodes=[1], horizon=5.0, period=1.0, fraction=0.0)

    def test_armed_waves_throttle_then_restore_capacity(self):
        cluster, _, injector = make_env()
        node = cluster.storage_nodes[3]
        base = node.uplink.capacity
        tl = FaultTimeline(seed=2).fluctuate(
            nodes=[3], horizon=4.0, period=2.0, amplitude=(0.5, 0.5),
            fraction=1.0,
        )
        tl.arm(cluster, injector)
        first = tl.sorted_events()[0]
        cluster.sim.run(until=first.at + 0.5 * first.duration)
        assert node.uplink.capacity == pytest.approx(0.5 * base)
        cluster.sim.run(until=10.0)
        assert node.uplink.capacity == pytest.approx(base)
