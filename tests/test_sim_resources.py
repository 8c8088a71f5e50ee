"""Tests for the windowed resource account (repro.sim.resources)."""

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.monitor import BandwidthMonitor
from repro.obs.timeseries import TimeseriesRecorder
from repro.sim import Flow, FlowScheduler, Resource, Simulator
from repro.sim.resources import ResourceWindows, non_repair_bytes


class TestResourceWindows:
    def test_close_returns_counts_before_and_now_and_moves_the_mark(self):
        res = Resource("n0.up", 100.0)
        res.account("repair", 5.0)
        windows = ResourceWindows([res])
        res.account("repair", 7.0)
        [(seen, before, now)] = windows.close()
        assert seen is res
        assert (before, now) == ({"repair": 5.0}, {"repair": 12.0})
        [(_, before, now)] = windows.close()
        assert before == now == {"repair": 12.0}

    def test_tag_first_seen_mid_window(self):
        res = Resource("n0.up", 100.0)
        res.account("foreground", 10.0)
        windows = ResourceWindows([res])
        res.account("scrub", 4.0)
        [(_, before, now)] = windows.close()
        assert "scrub" not in before
        assert now == {"foreground": 10.0, "scrub": 4.0}
        assert non_repair_bytes(now) - non_repair_bytes(before) == 4.0

    def test_irregular_closes(self):
        res = Resource("n0.down", 100.0)
        windows = ResourceWindows([res])
        deltas = []
        for nbytes in (3.0, 0.0, 0.0, 11.0):
            if nbytes:
                res.account("foreground", nbytes)
            [(_, before, now)] = windows.close()
            deltas.append(now.get("foreground", 0.0) - before.get("foreground", 0.0))
        assert deltas == [3.0, 0.0, 0.0, 11.0]

    def test_a_resource_tracked_twice_is_counted_once(self):
        res = Resource("n0.disk_read", 100.0)
        other = Resource("n1.disk_read", 100.0)
        windows = ResourceWindows([res, res])
        res.account("repair", 9.0)
        windows.track([other, res])
        closed = windows.close()
        assert [r for r, _, _ in closed] == [res, other]
        assert [now for _, _, now in closed] == [{"repair": 9.0}, {}]

    def test_close_does_not_settle_flows(self):
        sim = Simulator()
        flows = FlowScheduler(sim)
        res = Resource("link", 100.0)
        windows = ResourceWindows([res])
        flows.start_flow(Flow("fg", 1000.0, (res,), tag="foreground"))
        sim.run(until=2.0)
        [(_, _, unsettled)] = windows.close()
        flows.settle_now()
        [(_, before, settled)] = windows.close()
        assert before == unsettled
        assert settled["foreground"] - unsettled.get("foreground", 0.0) > 0


BUCKETS = ("repair", "scrub", "foreground")


def _snapshot(resources):
    return {res.name: dict(res.bytes_by_tag) for res in resources}


class OracleMonitor(BandwidthMonitor):
    """Checks every window it closes against the test's own snapshots."""

    def __init__(self, cluster, resources, window):
        super().__init__(cluster, window=window)
        self.resources = resources
        self.snapshots = _snapshot(resources)
        self.opened = cluster.sim.now
        self.closes = 0
        self.peak = 0.0

    def sample(self):
        super().sample()
        now = self.cluster.sim.now
        if now == self.opened:
            return
        current = _snapshot(self.resources)
        for res in self.resources:
            before, after = self.snapshots[res.name], current[res.name]
            grown = (sum(after.values()) - after.get("repair", 0.0)) - (
                sum(before.values()) - before.get("repair", 0.0))
            assert self.foreground_bw(res) == grown / (now - self.opened)
            self.peak = max(self.peak, self.foreground_bw(res))
        self.snapshots, self.opened = current, now
        self.closes += 1


class OracleRecorder(TimeseriesRecorder):
    """Checks every ``bw.*`` point it appends against the test's own
    snapshots (the recorder never settles, so neither does the test)."""

    def __init__(self, sim, resources, window):
        super().__init__(sim, window=window)
        self.resources = resources
        self.track_resources(resources)
        self.snapshots = _snapshot(resources)
        self.opened = sim.now
        self.closes = 0

    def sample(self):
        current = _snapshot(self.resources)
        super().sample()
        now = self.sim.now
        if now == self.opened:
            return
        span = now - self.opened
        totals = dict.fromkeys(BUCKETS, 0.0)
        for res in self.resources:
            before, after = self.snapshots[res.name], current[res.name]
            shares = dict.fromkeys(BUCKETS, 0.0)
            for tag, cum in after.items():
                shares[tag if tag in ("repair", "scrub") else "foreground"] += (
                    cum - before.get(tag, 0.0))
            for bucket, nbytes in shares.items():
                series = self.get(f"bw.{res.name}.{bucket}")
                assert (series.times[-1], series.values[-1]) == (now, nbytes / span)
                totals[bucket] += nbytes / span
        for bucket, bw in totals.items():
            series = self.get(f"bw.total.{bucket}")
            assert (series.times[-1], series.values[-1]) == (now, bw)
        self.snapshots, self.opened = current, now
        self.closes += 1


class TestWindowedViewsOracle:
    def test_monitor_and_recorder_match_independent_snapshots(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
        testbed.enable_integrity()
        cluster = testbed.cluster
        resources = [res for node in cluster.storage_nodes + cluster.clients
                     for res in node.all_resources()]
        monitor = OracleMonitor(cluster, resources, window=0.1)
        monitor.start()
        recorder = OracleRecorder(cluster.sim, resources, window=0.07)
        recorder.start()
        # One off-grid close of each, between their periodic ones.
        cluster.sim.schedule(1.234, monitor.sample)
        cluster.sim.schedule(1.234, recorder.sample)
        testbed.start_foreground()
        cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        testbed.start_scrubber(rate_mbs=100.0)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.run_until(lambda: repairer.done, step=0.5)
        testbed.scrubber.stop()
        recorder.stop()
        testbed.stop_foreground()
        assert monitor.closes >= 15 and monitor.peak > 0
        assert recorder.closes >= 20
        for bucket in BUCKETS:
            assert recorder.get(f"bw.total.{bucket}").max() > 0
