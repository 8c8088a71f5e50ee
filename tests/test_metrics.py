"""Tests for latency, throughput, interference, and Fig. 5/6 link statistics."""

import pytest

from repro.errors import SimulationError
from repro.experiments.figures import (
    close_link_windows,
    fluctuation_stats,
    most_and_least_loaded,
)
from repro.metrics import (
    LatencyRecorder,
    RepairThroughputMeter,
    improvement_ratio,
    interference_degree,
)
from repro.sim import Resource
from repro.sim.resources import ResourceWindows


class TestLatencyRecorder:
    def test_percentiles(self):
        rec = LatencyRecorder()
        for v in range(1, 101):
            rec.record(float(v))
        assert rec.p50 == pytest.approx(50.5)
        assert rec.p99 == pytest.approx(99.01)
        assert rec.mean == pytest.approx(50.5)
        assert rec.max == 100.0
        assert rec.count == 100

    def test_empty_recorder_zeroes(self):
        rec = LatencyRecorder()
        assert rec.p99 == 0.0
        assert rec.mean == 0.0
        assert rec.max == 0.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().record(-1.0)

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(1.0)
        b.record(3.0)
        merged = a.merge(b)
        assert merged.count == 2
        assert merged.mean == pytest.approx(2.0)


class TestThroughputMeter:
    def test_throughput(self):
        meter = RepairThroughputMeter()
        meter.start(0.0)
        meter.record_repair(5.0, 100.0)
        meter.record_repair(10.0, 100.0)
        meter.finish(10.0)
        assert meter.throughput == pytest.approx(20.0)
        assert meter.repaired_bytes == 200.0
        assert meter.chunks_repaired == 2

    def test_elapsed_without_finish_uses_last_event(self):
        meter = RepairThroughputMeter()
        meter.start(2.0)
        meter.record_repair(7.0, 50.0)
        assert meter.elapsed == pytest.approx(5.0)

    def test_zero_elapsed_zero_throughput(self):
        meter = RepairThroughputMeter()
        meter.start(1.0)
        meter.finish(1.0)
        assert meter.throughput == 0.0

    def test_invalid_bytes_rejected(self):
        meter = RepairThroughputMeter()
        with pytest.raises(SimulationError):
            meter.record_repair(1.0, 0.0)

    def test_windowed_series(self):
        meter = RepairThroughputMeter()
        meter.start(0.0)
        meter.record_repair(0.5, 10.0)
        meter.record_repair(1.5, 30.0)
        meter.finish(2.0)
        series = meter.windowed_throughput(window=1.0)
        assert series == [(0.0, 10.0), (1.0, 30.0)]

    def test_windowed_invalid_window(self):
        meter = RepairThroughputMeter()
        meter.start(0.0)
        with pytest.raises(SimulationError):
            meter.windowed_throughput(window=0)

    def test_windowed_before_start_empty(self):
        assert RepairThroughputMeter().windowed_throughput(1.0) == []


class TestInterference:
    def test_degree(self):
        assert interference_degree(12.0, 10.0) == pytest.approx(0.2)
        assert interference_degree(10.0, 10.0) == 0.0

    def test_invalid_baseline(self):
        with pytest.raises(SimulationError):
            interference_degree(5.0, 0.0)
        with pytest.raises(SimulationError):
            interference_degree(-1.0, 2.0)

    def test_improvement_ratio(self):
        assert improvement_ratio(15.0, 10.0) == pytest.approx(0.5)
        with pytest.raises(SimulationError):
            improvement_ratio(1.0, 0.0)


class TestLinkStats:
    """Fig. 5/6 series over one :class:`ResourceWindows` account."""

    def make(self):
        up = Resource("n0.up", 100.0)
        down = Resource("n0.down", 100.0)
        series = {up: ([], []), down: ([], [])}
        return up, down, ResourceWindows([up, down]), series

    def test_window_split_by_class(self):
        up, down, links, series = self.make()
        up.account("repair", 500.0)
        up.account("foreground", 300.0)
        up.account("scrub", 100.0)
        close_link_windows(links, series, 10.0)
        assert series[up] == ([50.0], [40.0])
        assert series[down] == ([0.0], [0.0])
        (most_repair, most_fg), _ = most_and_least_loaded(list(series.values()))
        assert most_repair + most_fg == pytest.approx(90.0)

    def test_fluctuation(self):
        up, down, links, series = self.make()
        up.account("foreground", 100.0)
        close_link_windows(links, series, 10.0)
        up.account("foreground", 900.0)
        close_link_windows(links, series, 10.0)
        assert series[up][1] == [10.0, 90.0]
        assert fluctuation_stats([series[up]]) == (80.0, 80.0, 80.0)

    def test_fluctuation_stats_aggregate(self):
        up, down, links, series = self.make()
        up.account("foreground", 200.0)
        close_link_windows(links, series, 10.0)
        up.account("foreground", 800.0)
        down.account("foreground", 100.0)
        close_link_windows(links, series, 10.0)
        # up swings 20 -> 80 B/s, down 0 -> 10 B/s.
        assert fluctuation_stats([series[up], series[down]]) == (35.0, 10.0, 60.0)

    def test_most_and_least_loaded(self):
        up, down, links, series = self.make()
        up.account("repair", 1000.0)
        down.account("repair", 10.0)
        down.account("foreground", 20.0)
        close_link_windows(links, series, 10.0)
        most, least = most_and_least_loaded([series[down], series[up]])
        assert most == (100.0, 0.0)
        assert least == (1.0, 2.0)

    def test_empty_collector_raises(self):
        with pytest.raises(SimulationError):
            most_and_least_loaded([])
        assert fluctuation_stats([]) == (0.0, 0.0, 0.0)
        # A link that saw no window close fluctuates by nothing.
        assert fluctuation_stats([([], [])]) == (0.0, 0.0, 0.0)
