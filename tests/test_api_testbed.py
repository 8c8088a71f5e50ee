"""The repro.api facade: code and trace specs checked on the one
construction path, foreground client counts, the feature methods, disk
bandwidth, and the stable re-exports."""

import pytest

import repro
from repro.api import Testbed
from repro.cluster import Cluster, mbs
from repro.codes import make_code
from repro.errors import CodingError, ReproError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_repair_experiment
from repro.faults import FaultTimeline
from repro.slo import SLOSpec
from repro.traffic import make_trace


@pytest.fixture
def no_cluster(monkeypatch):
    """Fail the test if ``Testbed.build`` gets as far as the cluster
    (whose simulator the first events are scheduled on)."""

    def refuse(*args, **kwargs):
        raise AssertionError("the cluster was built before the spec was checked")

    monkeypatch.setattr("repro.api.Cluster", refuse)


def build(**fields) -> Testbed:
    return Testbed.build(ExperimentConfig.scaled(0.05, **fields))


class TestNormalization:
    @pytest.mark.parametrize(
        ("spec", "expected"),
        [
            ("rs-6-3", "RS(6,3)"),
            ("RS-10-4", "RS(10,4)"),
            ("lrc-12-2-2", "LRC(12,2,2)"),
            ("butterfly-4-2", "Butterfly(4,2)"),
            ("RS(6,3)", "RS(6,3)"),  # canonical specs pass through
            ("rs(6,3)", "RS(6,3)"),  # registry form is case-normalized
            ("RS(6, 3)", "RS(6,3)"),  # whitespace tolerated
        ],
    )
    def test_code_specs(self, spec, expected):
        assert make_code(spec).name == expected
        assert build(code=spec).code.name == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "paritycheck-6-3",
            "rs",
            "rs-a-b",
            "XOR(6,3)",  # unknown family in registry form
            "RS(6,)",  # malformed parameter list
            "RS(a,b)",  # non-numeric parameters
            "",
        ],
    )
    def test_bad_code_spec_rejected(self, bad, no_cluster):
        with pytest.raises(ReproError, match="valid forms"):
            make_code(bad)
        with pytest.raises(ReproError, match="valid forms"):
            build(code=bad)

    @pytest.mark.parametrize(
        "bad", ["rs-6", "lrc-10-2", "Butterfly(4)", "rs-6-3-1", "RS(6,3,1)"]
    )
    def test_wrong_arity_fails_at_the_call_not_in_build(self, bad, no_cluster):
        with pytest.raises(CodingError, match="valid forms"):
            make_code(bad)
        with pytest.raises(CodingError, match="valid forms"):
            build(code=bad)

    @pytest.mark.parametrize("bad", ["butterfly-6-3", "lrc-10-3-2", "RS(0,2)"])
    def test_parameters_the_code_rejects_fail_at_the_call(self, bad, no_cluster):
        with pytest.raises(CodingError):
            make_code(bad)
        with pytest.raises(CodingError):
            build(code=bad)

    @pytest.mark.parametrize(
        ("slug", "expected"),
        [
            ("ycsb-a", "YCSB-A"),
            ("YCSB-A", "YCSB-A"),
            ("ibm-os", "IBM-OS"),
            ("memcached", "Memcached"),
            ("facebook-etc", "Facebook-ETC"),
        ],
    )
    def test_trace_slugs(self, slug, expected):
        assert make_trace(slug).name == expected
        testbed = build(trace=slug)
        testbed.start_foreground()
        assert {c.generator.name for c in testbed.clients} == {expected}

    def test_unknown_trace_rejected(self, no_cluster):
        with pytest.raises(SimulationError, match="valid traces"):
            make_trace("zipf-99")
        with pytest.raises(SimulationError, match="valid traces"):
            build(trace="zipf-99")


class TestForegroundClients:
    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_in_range_count_starts_that_many(self, count):
        testbed = build()
        testbed.start_foreground(num_clients=count)
        assert len(testbed.clients) == count

    @pytest.mark.parametrize("count", [-1, 5, 9])
    def test_out_of_range_count_rejected(self, count):
        testbed = build()
        with pytest.raises(ReproError, match="num_clients"):
            testbed.start_foreground(num_clients=count)
        assert testbed.clients == []


class TestFeatures:
    """Each feature method attaches its subsystem with the arguments it
    was given, and only when called."""

    def test_features_attach_what_they_were_given(self):
        testbed = build(seed=2)
        slo = SLOSpec("deadline", "repair_deadline", 100.0)
        testbed.set_slos(slo)
        testbed.enable_timeseries(window=0.5)
        testbed.enable_journal()
        testbed.enable_integrity()
        rot = testbed.inject_bitrot(corruptions=2, horizon=5.0)
        testbed.start_scrubber(100.0, passes=2)
        testbed.enable_admission_control(baseline_p99=0.01, window=2.0)
        testbed.enable_failure_detector(heartbeat_interval=0.25)

        assert testbed.slos == [slo]
        assert testbed.timeseries.window == 0.5  # the recorder came first
        assert testbed.journal is not None
        first_chunk = next(iter(testbed.chunk_store.chunks()))
        assert len(testbed.chunk_store.get(first_chunk)) == 128
        assert testbed.dataplane is not None and testbed.ledger is not None
        assert testbed.fault_timeline is rot
        assert len(rot.events) == 2
        assert testbed.scrubber.rate == pytest.approx(mbs(100.0))
        assert testbed.scrubber.running
        assert testbed.controller.baseline_p99 == 0.01
        assert testbed.controller.recorder is testbed.timeseries
        assert [s for s, _ in testbed.controller._scrubbers] == [testbed.scrubber]
        assert testbed.detector.heartbeat_interval == 0.25

    def test_an_unrequested_feature_is_not_applied(self):
        testbed = build()
        testbed.enable_journal()
        assert testbed.journal is not None
        assert testbed.timeseries is None and testbed.dataplane is None
        assert testbed.scrubber is None and testbed.controller is None
        assert testbed.detector is None
        assert testbed.fault_timeline is None


class TestPrebuiltTestbed:
    def test_harness_run_on_a_prebuilt_testbed_matches_the_default(self):
        config = ExperimentConfig.scaled(0.05, seed=3)
        default = run_repair_experiment(config, "CR", foreground=False)
        prebuilt = run_repair_experiment(
            config, "CR", foreground=False, scenario=Testbed.build(config)
        )
        assert prebuilt.repair_time == default.repair_time
        assert prebuilt.repaired_bytes == default.repaired_bytes
        assert prebuilt.extras["scenario"] is not default.extras["scenario"]


class TestAsymmetricDisk:
    """Disks are symmetric: one bandwidth sets both disk resources."""

    def test_config_reaches_node_resources(self):
        testbed = build(disk_mbs=800.0)
        node = testbed.cluster.node(testbed.cluster.storage_ids[0])
        assert node.disk_read.capacity == pytest.approx(mbs(800))
        assert node.disk_write.capacity == pytest.approx(mbs(800))

    def test_symmetric_default_from_disk_mbs(self):
        config = ExperimentConfig.scaled(0.05, disk_mbs=700.0)
        testbed = Testbed.build(config)
        node = testbed.cluster.node(testbed.cluster.storage_ids[0])
        assert node.disk_read.capacity == pytest.approx(mbs(700))
        assert node.disk_write.capacity == pytest.approx(mbs(700))

    def test_set_disk_bandwidth_split(self):
        cluster = Cluster(num_nodes=4, num_clients=1, link_bw=mbs(100))
        cluster.set_disk_bandwidth(mbs(400))
        for node in cluster.storage_nodes:
            assert node.disk_read.capacity == pytest.approx(mbs(400))
            assert node.disk_write.capacity == pytest.approx(mbs(400))
        # Storage-bottleneck throttling leaves client disks alone.
        assert cluster.clients[0].disk_read.capacity == pytest.approx(mbs(500))

    def test_negative_disk_bandwidth_rejected(self):
        with pytest.raises(ReproError):
            ExperimentConfig.scaled(0.05, disk_mbs=-1.0)


class TestFaultWiring:
    def test_install_faults_forwards_crash_chunks(self):
        testbed = Testbed.build(ExperimentConfig.scaled(0.06, seed=2))
        report = testbed.injector.fail_nodes([testbed.cluster.storage_ids[0]])
        repairer = testbed.make_repairer("ChameleonEC")
        adopted = []
        repairer.on("chunks_added", lambda r, chunks: adopted.extend(chunks))
        victim = next(
            n for n in testbed.cluster.storage_ids if testbed.cluster.node(n).alive
        )
        timeline = FaultTimeline(seed=1).crash(0.5, victim)
        testbed.install_faults(timeline)
        repairer.repair(report.failed_chunks)
        testbed.run_until(lambda: repairer.done, step=2.0)
        assert repairer.done
        assert repairer.lost == []
        assert adopted  # the crash report reached the running repairer
        assert not testbed.cluster.node(victim).alive

    def test_repairers_are_tracked(self):
        testbed = build()
        repairer = testbed.make_repairer("CR")
        assert testbed.repairers == [repairer]


class TestRunUntilLimit:
    def test_limit_raises_convergence_error(self):
        """A predicate that never turns true must surface as a clear
        RuntimeError at the limit, not an infinite loop or a bare None."""
        from repro.errors import ConvergenceError

        testbed = build()
        with pytest.raises(ConvergenceError, match="limit"):
            testbed.run_until(lambda: False, step=1.0, limit=3.0)

    def test_satisfied_predicate_returns_the_clock(self):
        testbed = build()
        end = testbed.run_until(
            lambda: testbed.cluster.sim.now >= 2.0, step=1.0, limit=10.0
        )
        assert end >= 2.0


class TestReExports:
    @pytest.mark.parametrize(
        "name",
        [
            "Testbed",
            "ExperimentConfig",
            "HookEmitter",
            "FaultTimeline",
            "FaultEvent",
            "NodeCrash",
            "BandwidthDegradation",
            "FlowInterruption",
            "ToleranceExceeded",
        ],
    )
    def test_stable_surface(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__
