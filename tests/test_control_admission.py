"""Adaptive admission control: AIMD policy, controller, equivalence.

The contract under test is twofold: the controller must *act* (back
off scrub/repair intensity on hot windows, recover on calm ones,
respect the hysteresis band and the floor), and it must act
*invisibly* when its thresholds never trigger — a controller whose
high-water mark is unreachable leaves the simulation byte-identical
to a controller-free run (the determinism acceptance criterion).
"""

import pytest

from repro.api import Testbed
from repro.control import AdmissionController, AIMDPolicy
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import RepairThroughputMeter
from repro.obs.timeseries import TimeseriesRecorder
from repro.sim.engine import Simulator


class TestAIMDPolicy:
    def test_defaults_valid(self):
        policy = AIMDPolicy()
        assert policy.high_water > policy.low_water > 0

    @pytest.mark.parametrize("kwargs", [
        {"high_water": 0.0},
        {"low_water": 0.0},
        {"low_water": 2.5},              # above high_water: no band
        {"backoff": 0.0},
        {"backoff": 1.0},                # multiplying by 1 never backs off
        {"recover": 0.0},
        {"floor": 0.0},
        {"floor": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            AIMDPolicy(**kwargs)

    def test_backoff_is_multiplicative(self):
        policy = AIMDPolicy(high_water=2.0, backoff=0.5)
        assert policy.step(1.0, 3.0) == 0.5
        assert policy.step(0.5, 3.0) == 0.25

    def test_backoff_clamps_at_floor(self):
        policy = AIMDPolicy(backoff=0.5, floor=0.2)
        assert policy.step(0.25, 10.0) == 0.2
        assert policy.step(0.2, 10.0) == 0.2

    def test_hysteresis_band_holds(self):
        policy = AIMDPolicy(high_water=2.0, low_water=1.25)
        for inflation in (1.25, 1.5, 2.0):
            assert policy.step(0.5, inflation) == 0.5

    def test_recovery_is_additive_and_capped(self):
        policy = AIMDPolicy(low_water=1.25, recover=0.1)
        assert policy.step(0.5, 1.0) == pytest.approx(0.6)
        assert policy.step(0.95, 1.0) == 1.0
        assert policy.step(1.0, 1.0) == 1.0


class FakeScrubber:
    def __init__(self, rate=100.0):
        self.rate = rate
        self.calls = []

    def set_rate(self, rate):
        self.rate = rate
        self.calls.append(rate)


class FakeRunner:
    def __init__(self, concurrency=8):
        self.concurrency = concurrency
        self.crashed = False
        self.meter = RepairThroughputMeter()
        self.calls = []

    def set_concurrency(self, concurrency):
        self.concurrency = concurrency
        self.calls.append(concurrency)


def make_loop(*, window=1.0, baseline=0.010, **kwargs):
    """A recorder + controller pair over a synthetic foreground source."""
    sim = Simulator()
    recorder = TimeseriesRecorder(sim, window=window)
    lat = LatencyRecorder("foreground")
    recorder.track_latency(lat)
    recorder.start()
    controller = AdmissionController(
        recorder, baseline_p99=baseline, **kwargs
    )
    controller.start()
    return sim, recorder, lat, controller


def feed(sim, lat, value, *, at):
    """Schedule one latency sample strictly inside a window."""
    sim.schedule(at - sim.now, lambda: lat.record(value))


class TestControllerLifecycle:
    def test_baseline_must_be_positive(self):
        recorder = TimeseriesRecorder(Simulator(), window=1.0)
        for baseline in (0.0, -0.01):
            with pytest.raises(ReproError):
                AdmissionController(recorder, baseline_p99=baseline)
        with pytest.raises(TypeError, match="baseline_p99"):
            AdmissionController(recorder)

    def test_start_requires_started_recorder(self):
        recorder = TimeseriesRecorder(Simulator(), window=1.0)
        controller = AdmissionController(recorder, baseline_p99=0.01)
        with pytest.raises(ReproError, match="started TimeseriesRecorder"):
            controller.start()

    def test_start_twice_rejected_stop_idempotent(self):
        _, _, _, controller = make_loop()
        assert controller.started
        with pytest.raises(ReproError):
            controller.start()
        controller.stop()
        controller.stop()
        assert not controller.started


class TestControlStep:
    def test_hot_windows_back_off_all_actuators(self):
        sim, _, lat, controller = make_loop()
        scrubber, runner, coord = FakeScrubber(100.0), FakeRunner(8), FakeRunner(8)
        controller.attach_scrubber(scrubber)
        controller.attach_repairer(runner)
        controller.attach_repairer(coord)
        # Inflation 5x > default high_water 2.0 in two consecutive windows.
        feed(sim, lat, 0.050, at=0.5)
        feed(sim, lat, 0.050, at=1.5)
        sim.run(until=2.0)
        assert controller.level == pytest.approx(0.25)
        assert controller.backoffs == 2
        assert controller.min_level == pytest.approx(0.25)
        assert scrubber.rate == pytest.approx(25.0)
        assert runner.concurrency == 2
        assert coord.concurrency == 2

    def test_repair_concurrency_never_below_one(self):
        sim, _, lat, controller = make_loop(
            policy=AIMDPolicy(backoff=0.5, floor=0.01)
        )
        runner = FakeRunner(4)
        controller.attach_repairer(runner)
        for w in range(6):
            feed(sim, lat, 0.050, at=w + 0.5)
        sim.run(until=6.0)
        assert controller.level < 0.25
        assert runner.concurrency == 1

    def test_hysteresis_band_does_not_actuate(self):
        sim, _, lat, controller = make_loop()
        scrubber = FakeScrubber(100.0)
        controller.attach_scrubber(scrubber)
        feed(sim, lat, 0.015, at=0.5)  # inflation 1.5: inside the band
        sim.run(until=1.0)
        assert controller.level == 1.0
        assert scrubber.calls == []
        assert controller.backoffs == controller.recoveries == 0

    def test_empty_window_holds(self):
        sim, _, _, controller = make_loop()
        scrubber = FakeScrubber(100.0)
        controller.attach_scrubber(scrubber)
        sim.run(until=3.0)  # three windows, zero foreground samples
        assert controller.level == 1.0
        assert controller.windows_seen == 3
        assert scrubber.calls == []

    def test_calm_windows_recover_additively(self):
        sim, _, lat, controller = make_loop()
        scrubber = FakeScrubber(100.0)
        controller.attach_scrubber(scrubber)
        feed(sim, lat, 0.050, at=0.5)   # backoff: 1.0 -> 0.5
        for w in range(1, 6):
            feed(sim, lat, 0.010, at=w + 0.5)  # calm: +0.1 each
        sim.run(until=6.0)
        assert controller.level == pytest.approx(1.0)
        assert controller.backoffs == 1
        assert controller.recoveries == 5
        assert controller.min_level == pytest.approx(0.5)
        assert scrubber.rate == pytest.approx(100.0)

    def test_recovery_at_full_intensity_is_a_noop(self):
        sim, _, lat, controller = make_loop()
        scrubber = FakeScrubber(100.0)
        controller.attach_scrubber(scrubber)
        feed(sim, lat, 0.010, at=0.5)  # calm at level 1.0
        sim.run(until=1.0)
        assert controller.recoveries == 0
        assert scrubber.calls == []

    def test_crashed_repairer_is_skipped(self):
        sim, _, lat, controller = make_loop()
        runner = FakeRunner(8)
        controller.attach_repairer(runner)
        runner.crashed = True
        feed(sim, lat, 0.050, at=0.5)
        sim.run(until=1.0)
        assert controller.level == pytest.approx(0.5)
        assert runner.calls == []  # no knob-turning on a dead coordinator

    def test_attach_at_full_level_does_not_touch_actuators(self):
        _, _, _, controller = make_loop()
        scrubber, runner = FakeScrubber(100.0), FakeRunner(8)
        controller.attach_scrubber(scrubber)
        controller.attach_repairer(runner)
        assert scrubber.calls == []
        assert runner.calls == []

    def test_attach_after_backoff_applies_current_level(self):
        sim, _, lat, controller = make_loop()
        feed(sim, lat, 0.050, at=0.5)
        sim.run(until=1.0)
        assert controller.level == pytest.approx(0.5)
        scrubber = FakeScrubber(100.0)
        controller.attach_scrubber(scrubber)
        assert scrubber.rate == pytest.approx(50.0)


def _drive_scenario(config: ExperimentConfig, *, controller: bool):
    """The fixed scripted run from the timeseries equivalence test, with
    an (unreachable-threshold) admission controller optionally riding it."""
    testbed = Testbed.build(config)
    testbed.enable_timeseries(window=0.5)
    if controller:
        # A baseline three orders of magnitude above any real P99 keeps
        # inflation ~0 forever: the controller sees only calm windows at
        # level 1.0, where recovery is a no-op.
        testbed.enable_admission_control(baseline_p99=1e6, window=0.5)
    testbed.start_foreground()
    testbed.cluster.sim.run(until=1.0)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done, step=0.5)
    if controller:
        testbed.controller.stop()
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
        "latency_series": testbed.timeseries.to_dict(prefix="lat."),
        "bandwidth_series": testbed.timeseries.to_dict(prefix="bw."),
    }


class TestDeterminismEquivalence:
    def test_idle_controller_does_not_perturb_the_simulation(self):
        """The acceptance criterion: a controller whose thresholds never
        trigger leaves timing, latency samples, per-tag byte counters,
        and the recorded series byte-identical to a controller-free run."""
        config = ExperimentConfig.scaled(0.05, chunk_mb=16.0)
        with_ctl = _drive_scenario(config, controller=True)
        without = _drive_scenario(config, controller=False)
        assert with_ctl == without


class TestTestbedWiring:
    def test_enable_is_idempotent(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
        first = testbed.enable_admission_control(baseline_p99=0.01)
        second = testbed.enable_admission_control(baseline_p99=0.01)
        assert first is second is testbed.controller

    def test_enable_installs_controller(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
        testbed.enable_timeseries(window=0.5)
        testbed.enable_admission_control(baseline_p99=0.01)
        assert testbed.controller is not None
        assert testbed.controller.started
        # The recorder kept its own cadence; the controller follows.
        assert testbed.timeseries.window == 0.5

    def test_new_repairers_and_scrubber_attach_automatically(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
        testbed.enable_integrity()
        testbed.enable_admission_control(baseline_p99=0.01, window=0.5)
        controller = testbed.controller
        assert controller._scrubbers == [] and controller._repairers == []
        testbed.start_scrubber(rate_mbs=50.0)
        repairer = testbed.make_repairer("ChameleonEC")
        assert [s for s, _ in controller._scrubbers] == [testbed.scrubber]
        assert [r for r, _ in controller._repairers] == [repairer]
