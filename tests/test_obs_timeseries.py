"""Virtual-time series sampling (repro.obs.timeseries + Simulator.every)."""

import pytest

from repro.api import Testbed
from repro.errors import ReproError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.latency import LatencyRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import Series, TimeseriesRecorder, _window_delta
from repro.sim.engine import Simulator


class TestSeries:
    def test_append_and_views(self):
        s = Series("x")
        s.append(1.0, 10.0)
        s.append(2.0, 30.0)
        assert len(s) == 2
        assert s.last == 30.0
        assert s.max() == 30.0
        assert s.mean() == 20.0
        assert s.to_dict() == {
            "name": "x", "times": [1.0, 2.0], "values": [10.0, 30.0]
        }

    def test_empty_views(self):
        s = Series("x")
        assert s.last == 0.0
        assert s.max() == 0.0
        assert s.mean() == 0.0


class TestPeriodicHook:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        hook = sim.every(2.0, lambda: ticks.append(sim.now))
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        assert hook.fires == 3

    def test_cancel_stops_firing(self):
        sim = Simulator()
        ticks = []
        hook = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        hook.cancel()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert hook.cancelled

    def test_callback_may_cancel_its_own_hook(self):
        sim = Simulator()
        ticks = []
        hook = sim.every(1.0, lambda: (ticks.append(sim.now), hook.cancel()))
        sim.run(until=5.0)
        assert ticks == [1.0]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestRecorderSampling:
    def test_window_must_be_positive(self):
        with pytest.raises(ReproError):
            TimeseriesRecorder(Simulator(), window=0.0)

    def test_counter_becomes_rate(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        requests = registry.counter("requests")
        recorder.start()
        sim.schedule(0.5, lambda: requests.inc(10))
        sim.schedule(1.5, lambda: requests.inc(4))
        sim.run(until=2.0)
        assert recorder.get("rate.requests").values == [10.0, 4.0]
        assert recorder.get("rate.requests").times == [1.0, 2.0]

    def test_gauge_sampled_point_in_time(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        depth = registry.gauge("queue.depth")
        recorder.start()
        sim.schedule(0.2, lambda: depth.set(7))
        sim.schedule(1.2, lambda: depth.set(3))
        sim.run(until=2.0)
        assert recorder.get("gauge.queue.depth").values == [7.0, 3.0]

    def test_histogram_window_deltas_are_windowed(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        hist = registry.histogram("lat")
        recorder.start()
        sim.schedule(0.5, lambda: [hist.observe(v) for v in (1.0, 2.0, 3.0)])
        sim.schedule(1.5, lambda: hist.observe(100.0))
        sim.run(until=2.0)
        counts = recorder.get("hist.lat.count").values
        means = recorder.get("hist.lat.mean").values
        assert counts == [3.0, 1.0]
        assert means[0] == pytest.approx(2.0)
        # Window two's mean reflects only the 100.0 sample, not the
        # cumulative distribution.
        assert means[1] == pytest.approx(100.0)
        assert recorder.get("hist.lat.p99").values[1] == pytest.approx(
            100.0, rel=0.06
        )

    def test_metrics_created_after_start_are_picked_up(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        recorder.start()
        sim.schedule(1.5, lambda: registry.counter("late").inc(6))
        sim.run(until=3.0)
        # First window closes before the counter exists; the rate series
        # still reports the full delta in the window it first appears.
        assert 6.0 in recorder.get("rate.late").values

    def test_latency_percentiles_per_window(self):
        sim = Simulator()
        recorder = TimeseriesRecorder(sim, window=1.0)
        lat = LatencyRecorder("fg")
        recorder.track_latency(lat)
        recorder.start()
        sim.schedule(0.5, lambda: [lat.record(v) for v in (0.1, 0.2, 0.3)])
        sim.run(until=2.0)
        assert recorder.get("lat.fg.count").values == [3.0, 0.0]
        assert recorder.get("lat.fg.p50").values[0] == pytest.approx(0.2)
        # An empty window samples 0.0 (and its count says why).
        assert recorder.get("lat.fg.p50").values[1] == 0.0

    def test_duplicate_latency_source_rejected(self):
        recorder = TimeseriesRecorder(Simulator(), window=1.0)
        lat = LatencyRecorder("fg")
        recorder.track_latency(lat)
        with pytest.raises(ReproError):
            recorder.track_latency(lat)

    def test_start_twice_rejected_and_stop_idempotent(self):
        recorder = TimeseriesRecorder(Simulator(), window=1.0)
        recorder.start()
        assert recorder.started
        with pytest.raises(ReproError):
            recorder.start()
        recorder.stop()
        recorder.stop()
        assert not recorder.started

    def test_stop_closes_final_partial_window_with_true_rate(self):
        """Regression: activity between the last window boundary and
        ``stop()`` used to vanish, and a hypothetical closing sample
        would have divided by the full window, deflating the rate. The
        partial window must close on stop and scale by actual elapsed
        span: 3 increments over 0.5s = 6.0/s, not 3.0/s."""
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        requests = registry.counter("requests")
        recorder.start()
        sim.schedule(0.5, lambda: requests.inc(10))
        sim.schedule(2.2, lambda: requests.inc(3))
        sim.run(until=2.5)
        recorder.stop()
        series = recorder.get("rate.requests")
        assert series.times == [1.0, 2.0, 2.5]
        assert series.values == [10.0, 0.0, 6.0]

    def test_stop_at_boundary_does_not_emit_empty_window(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        registry.counter("requests").inc()
        recorder.start()
        sim.run(until=2.0)
        windows = recorder.windows_closed
        recorder.stop()  # sim.now == the last boundary: nothing to close
        assert recorder.windows_closed == windows
        assert recorder.get("rate.requests").times == [1.0, 2.0]

    def test_latest_and_last_close(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        requests = registry.counter("requests")
        assert recorder.last_close is None
        assert recorder.latest("rate.requests") == 0.0
        assert recorder.latest("rate.requests", default=-1.0) == -1.0
        recorder.start()
        sim.schedule(0.5, lambda: requests.inc(4))
        sim.run(until=1.0)
        assert recorder.last_close == 1.0
        assert recorder.latest("rate.requests") == 4.0

    def test_unknown_series_raises_with_hint(self):
        recorder = TimeseriesRecorder(Simulator(), window=1.0)
        with pytest.raises(ReproError, match="no timeseries"):
            recorder.get("rate.nope")

    def test_to_dict_prefix_filter(self):
        sim = Simulator()
        registry = MetricsRegistry()
        recorder = TimeseriesRecorder(sim, window=1.0)
        recorder.track_registry(registry)
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        recorder.start()
        sim.run(until=1.0)
        assert set(recorder.to_dict()) == {"rate.a", "gauge.b"}
        assert set(recorder.to_dict(prefix="rate.")) == {"rate.a"}


class TestWindowDeltaInvariants:
    def test_window_counts_sum_to_cumulative(self):
        from repro.obs.metrics import Histogram
        from repro.obs.timeseries import _HistShadow

        hist = Histogram("h")
        shadow = _HistShadow(0, 0.0, 0, {})
        total_windowed = 0
        values = [0.0, 0.5, 1.0, 2.0, 40.0, 0.0, 7.5, 1e6]
        for i, v in enumerate(values):
            hist.observe(v)
            if i % 3 == 2:
                delta = _window_delta(hist, shadow)
                total_windowed += delta.count
                shadow = _HistShadow(
                    hist.count, hist.total, hist._zeros, dict(hist._buckets)
                )
        delta = _window_delta(hist, shadow)
        total_windowed += delta.count
        assert total_windowed == hist.count

    def test_delta_extremes_clamped_to_cumulative(self):
        from repro.obs.metrics import Histogram
        from repro.obs.timeseries import _HistShadow

        hist = Histogram("h")
        hist.observe(5.0)
        shadow = _HistShadow(
            hist.count, hist.total, hist._zeros, dict(hist._buckets)
        )
        hist.observe(6.0)
        delta = _window_delta(hist, shadow)
        assert delta.count == 1
        assert delta.min >= hist.min
        assert delta.max <= hist.max


class TestPerTagAttribution:
    def test_repair_and_scrub_shares_break_out(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
        testbed.enable_timeseries(window=0.5)
        testbed.enable_integrity()
        testbed.start_foreground()
        testbed.cluster.sim.run(until=1.0)
        report = testbed.fail_nodes(1)
        testbed.start_scrubber(rate_mbs=100.0)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.run_until(lambda: repairer.done, step=0.5)
        testbed.scrubber.stop()
        testbed.stop_foreground()
        testbed.run_until(testbed.foreground_done, step=0.5)
        ts = testbed.timeseries
        assert ts.get("bw.total.foreground").max() > 0
        assert ts.get("bw.total.repair").max() > 0
        assert ts.get("bw.total.scrub").max() > 0
        # Before the failure, no repair bytes moved anywhere.
        repair_bw = ts.get("bw.total.repair")
        pre_failure = [v for t, v in zip(repair_bw.times, repair_bw.values)
                       if t <= 1.0]
        assert all(v == 0.0 for v in pre_failure)
        # Per-resource series exist for every cluster resource.
        some_node = testbed.cluster.storage_nodes[0]
        uplink = some_node.uplink.name
        assert f"bw.{uplink}.repair" in ts.names()


def _drive_scenario(config: ExperimentConfig, *, timeseries: bool):
    """One fixed scripted run; returns its observable outcome state."""
    testbed = Testbed.build(config)
    if timeseries:
        testbed.enable_timeseries(window=0.5)
    testbed.start_foreground()
    testbed.cluster.sim.run(until=1.0)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done, step=0.5)
    if timeseries:
        testbed.timeseries.stop()
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=0.5)
    resources = {}
    for node in testbed.cluster.storage_nodes + testbed.cluster.clients:
        for res in node.all_resources():
            resources[res.name] = dict(res.bytes_by_tag)
    return {
        "finished_at": repairer.meter.finished_at,
        "repaired_bytes": repairer.meter.repaired_bytes,
        "latency_samples": list(testbed.latency.samples),
        "resources": resources,
    }


class TestDeterminismEquivalence:
    def test_sampling_does_not_perturb_the_simulation(self):
        """The acceptance criterion: a run with the recorder installed is
        byte-identical (timing, latency samples, per-tag byte counters)
        to a sampler-free run."""
        config = ExperimentConfig.scaled(0.05, chunk_mb=16.0)
        with_ts = _drive_scenario(config, timeseries=True)
        without = _drive_scenario(config, timeseries=False)
        assert with_ts == without
