"""Tests for bandwidth monitoring and straggler detection."""

import pytest

from repro.cluster import Cluster, mbs
from repro.errors import SimulationError
from repro.monitor import BandwidthMonitor, ProgressTracker
from repro.sim import Flow, Resource, Transfer


def make_cluster():
    return Cluster(num_nodes=4, num_clients=1, link_bw=mbs(100))


class TestBandwidthMonitor:
    def test_idle_equals_capacity_when_quiet(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        cluster.sim.run(until=3.0)
        node = cluster.storage_nodes[0]
        assert monitor.idle_bw(node.uplink) == pytest.approx(node.uplink.capacity)

    def test_foreground_reduces_idle_estimate(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        node = cluster.storage_nodes[0]
        # Saturate node 0's uplink with foreground traffic for 2 seconds.
        flow = Flow("fg", mbs(100) * 2, (node.uplink,), tag="foreground")
        cluster.flows.start_flow(flow)
        cluster.sim.run(until=2.0)
        assert monitor.foreground_bw(node.uplink) == pytest.approx(mbs(100), rel=0.05)
        # Idle estimate floors at a small fraction instead of zero.
        assert 0 < monitor.idle_bw(node.uplink) <= 0.05 * node.uplink.capacity

    def test_repair_traffic_not_counted_as_foreground(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        node = cluster.storage_nodes[1]
        flow = Flow("rep", mbs(100) * 2, (node.uplink,), tag="repair")
        cluster.flows.start_flow(flow)
        cluster.sim.run(until=2.0)
        assert monitor.foreground_bw(node.uplink) == pytest.approx(0.0, abs=1.0)
        assert monitor.idle_bw(node.uplink) == pytest.approx(node.uplink.capacity)

    def test_window_expires_old_traffic(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        node = cluster.storage_nodes[0]
        flow = Flow("fg", mbs(100) * 1, (node.uplink,), tag="foreground")
        cluster.flows.start_flow(flow)
        cluster.sim.run(until=5.0)  # traffic finished at t=1; windows move on
        assert monitor.foreground_bw(node.uplink) == pytest.approx(0.0, abs=1.0)

    def test_irregular_manual_sampling(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        node = cluster.storage_nodes[0]
        flow = Flow("fg", mbs(100) * 0.5, (node.uplink,), tag="foreground")
        cluster.flows.start_flow(flow)
        cluster.sim.run(until=0.5)
        monitor.sample()  # elapsed 0.5 s, not the nominal window
        assert monitor.foreground_bw(node.uplink) == pytest.approx(mbs(100), rel=0.05)

    def test_disk_accessors(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        node = cluster.storage_nodes[0]
        assert monitor.idle_bw(node.disk_read) == pytest.approx(node.disk_read.capacity)
        assert monitor.idle_bw(node.disk_write) == pytest.approx(node.disk_write.capacity)

    def test_invalid_window(self):
        with pytest.raises(SimulationError):
            BandwidthMonitor(make_cluster(), window=0)

    def test_double_start_noop(self):
        cluster = make_cluster()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        monitor.start()
        cluster.sim.run(until=2.5)  # would raise if double-scheduled oddly


class TestProgressTracker:
    def test_delayed_detection(self):
        tracker = ProgressTracker(threshold=1.0)
        transfer = Transfer("t", (Resource("r", 100),), 1000, 100)
        tracker.track(transfer, expected_finish=5.0)
        assert tracker.delayed_tasks(now=5.5) == []
        delayed = tracker.delayed_tasks(now=6.5)
        assert len(delayed) == 1
        assert delayed[0].transfer is transfer

    def test_done_tasks_not_delayed(self):
        tracker = ProgressTracker(threshold=1.0)
        transfer = Transfer("t", (Resource("r", 100),), 1000, 100)
        transfer.completed_at = 4.0
        tracker.track(transfer, expected_finish=2.0)
        assert tracker.delayed_tasks(now=10.0) == []

    def test_cancelled_tasks_not_delayed(self):
        tracker = ProgressTracker(threshold=1.0)
        transfer = Transfer("t", (Resource("r", 100),), 1000, 100)
        transfer.cancelled = True
        tracker.track(transfer, expected_finish=2.0)
        assert tracker.delayed_tasks(now=10.0) == []

    def test_negative_expectation_rejected(self):
        tracker = ProgressTracker()
        transfer = Transfer("t", (Resource("r", 100),), 1000, 100)
        with pytest.raises(SimulationError):
            tracker.track(transfer, expected_finish=-1.0)

    def test_clear_finished(self):
        tracker = ProgressTracker()
        done = Transfer("a", (Resource("r", 100),), 100, 100)
        done.completed_at = 1.0
        live = Transfer("b", (Resource("r", 100),), 100, 100)
        tracker.track(done, 1.0)
        tracker.track(live, 1.0)
        tracker.clear_finished()
        assert [t.transfer for t in tracker.tasks] == [live]

    def test_pending_tasks(self):
        tracker = ProgressTracker()
        live = Transfer("b", (Resource("r", 100),), 100, 100)
        tracker.track(live, 1.0)
        assert [t.transfer for t in tracker.pending_tasks()] == [live]

    def test_scan_prunes_finished_tasks(self):
        # The tracked set must not grow with every transfer ever
        # dispatched: a scan drops done/cancelled tasks and keeps counts.
        tracker = ProgressTracker(threshold=1.0)
        done = Transfer("a", (Resource("r", 100),), 100, 100)
        done.completed_at = 1.0
        cancelled = Transfer("b", (Resource("r", 100),), 100, 100)
        cancelled.cancelled = True
        live = Transfer("c", (Resource("r", 100),), 100, 100)
        tracker.track(done, 1.0)
        tracker.track(cancelled, 1.0)
        tracker.track(live, 5.0)
        tracker.delayed_tasks(now=2.0)
        assert [t.transfer for t in tracker.tasks] == [live]
        assert tracker.completed_count == 1
        assert tracker.cancelled_count == 1

    def test_pruned_counts_accumulate_across_scans(self):
        tracker = ProgressTracker(threshold=1.0)
        for i in range(3):
            done = Transfer(f"t{i}", (Resource("r", 100),), 100, 100)
            tracker.track(done, 1.0)
            done.completed_at = float(i)
            tracker.delayed_tasks(now=10.0)
        assert tracker.tasks == []
        assert tracker.completed_count == 3

    def test_clear_finished_counts_and_drops_cancelled(self):
        tracker = ProgressTracker()
        done = Transfer("a", (Resource("r", 100),), 100, 100)
        done.completed_at = 1.0
        cancelled = Transfer("b", (Resource("r", 100),), 100, 100)
        cancelled.cancelled = True
        tracker.track(done, 1.0)
        tracker.track(cancelled, 1.0)
        tracker.clear_finished()
        assert tracker.tasks == []
        assert tracker.completed_count == 1
        assert tracker.cancelled_count == 1
