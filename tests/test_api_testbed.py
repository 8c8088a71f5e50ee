"""The repro.api facade: TestbedBuilder spec parsing and its feature
table, disk bandwidth, and the stable re-exports."""

import inspect

import pytest

import repro
from repro.api import _FEATURES, Testbed, TestbedBuilder
from repro.cluster import Cluster, mbs
from repro.codes import make_code
from repro.errors import CodingError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_repair_experiment
from repro.faults import FaultTimeline


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
        assert TestbedBuilder().with_code(spec).config().code == expected

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
    def test_bad_code_spec_rejected(self, bad):
        with pytest.raises(ReproError, match="valid forms"):
            TestbedBuilder().with_code(bad)

    @pytest.mark.parametrize(
        "bad", ["rs-6", "lrc-10-2", "Butterfly(4)", "rs-6-3-1", "RS(6,3,1)"]
    )
    def test_wrong_arity_fails_at_the_call_not_in_build(self, bad):
        with pytest.raises(CodingError, match="valid forms"):
            TestbedBuilder().with_code(bad)

    @pytest.mark.parametrize("bad", ["butterfly-6-3", "lrc-10-3-2", "RS(0,2)"])
    def test_parameters_the_code_rejects_fail_at_the_call(self, bad):
        with pytest.raises(CodingError):
            TestbedBuilder().with_code(bad)

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
        assert TestbedBuilder().with_trace(slug).config().trace == expected

    def test_unknown_trace_rejected(self):
        with pytest.raises(ReproError, match="valid traces"):
            TestbedBuilder().with_trace("zipf-99")


class TestBuilder:
    def test_builder_produces_config(self):
        config = (
            TestbedBuilder()
            .with_code("rs-6-3")
            .with_nodes(18)
            .with_clients(2)
            .with_trace("ycsb-a")
            .with_chunks(10)
            .with_seed(5)
            .with_options(link_gbps=25.0, disk_mbs=800.0)
            .config()
        )
        assert config.code == "RS(6,3)"
        assert config.num_nodes == 18
        assert config.num_clients == 2
        assert config.trace == "YCSB-A"
        assert config.num_chunks == 10
        assert config.seed == 5
        assert config.link_gbps == 25.0
        assert config.disk_mbs == 800.0

    def test_with_options_passthrough(self):
        config = TestbedBuilder().with_options(t_phase=3.0, racks=2).config()
        assert config.t_phase == 3.0
        assert config.racks == 2

    def test_build_returns_testbed(self):
        testbed = TestbedBuilder().scaled(0.05).build()
        assert isinstance(testbed, Testbed)
        assert testbed.cluster.sim is not None

    def test_classmethod_builder(self):
        assert isinstance(Testbed.builder(), TestbedBuilder)


#: One non-default argument per feature that takes any, so a replay
#: that dropped or defaulted it shows up in :func:`subsystems`.
FEATURE_ARGS = {
    "with_timeseries": {"window": 0.5},
    "with_journal": {},
    "with_integrity": {},
    "with_bitrot": {"corruptions": 2, "horizon": 5.0},
    "with_scrubber": {"rate_mbs": 100.0},
    "with_admission_control": {"baseline_p99": 0.01},
    "with_failure_detector": {"heartbeat_interval": 0.25},
}


def subsystems(testbed: Testbed) -> dict:
    """What the seven features leave attached to a testbed."""
    first_chunk = next(iter(testbed.chunk_store.chunks()))
    return {
        "timeseries": testbed.timeseries.window,
        "journal": testbed.journal.lease_duration,
        "integrity": (
            len(testbed.chunk_store.get(first_chunk)),
            testbed.dataplane is not None,
            testbed.ledger is not None,
        ),
        "scrubber": (testbed.scrubber.rate, testbed.scrubber.running),
        "controller": (
            testbed.controller.baseline_p99,
            testbed.controller.recorder is testbed.timeseries,
            [s for s, _ in testbed.controller._scrubbers] == [testbed.scrubber],
        ),
        "detector": testbed.detector.heartbeat_interval,
        "faults": [repr(event) for event in testbed.fault_timeline.events],
    }


class TestFeatureTable:
    """``_FEATURES`` is the contract: each builder feature method *is*
    its Testbed method, deferred to ``build()`` and replayed in table
    order."""

    def test_table_covers_every_builder_feature_once(self):
        names = [name for name, _ in _FEATURES]
        assert sorted(names) == sorted(FEATURE_ARGS)
        assert len(set(names)) == len(names)
        # Derived by the one factory, not hand-written beside the table.
        methods = [getattr(TestbedBuilder, name) for name in names]
        assert [m.__name__ for m in methods] == names
        assert len({m.__code__ for m in methods}) == 1

    @pytest.mark.parametrize(("name", "target"), _FEATURES)
    def test_builder_method_has_its_targets_signature(self, name, target):
        derived = inspect.signature(getattr(TestbedBuilder, name))
        original = inspect.signature(getattr(Testbed, target))
        assert list(derived.parameters.values()) == list(
            original.parameters.values()
        )
        assert derived.return_annotation == "TestbedBuilder"
        assert inspect.getdoc(getattr(Testbed, target)) in getattr(
            TestbedBuilder, name
        ).__doc__

    @pytest.mark.parametrize(("name", "target"), _FEATURES)
    def test_unknown_keyword_fails_at_the_call_not_in_build(self, name, target):
        builder = TestbedBuilder()
        with pytest.raises(TypeError, match="no_such_option"):
            getattr(builder, name)(no_such_option=1, **FEATURE_ARGS[name])
        assert builder._features == {}
        assert getattr(builder, name)(**FEATURE_ARGS[name]) is builder

    def test_scrubber_rate_binds_positionally_or_by_keyword(self):
        by_position = TestbedBuilder().with_scrubber(100.0, passes=2)
        by_keyword = TestbedBuilder().with_scrubber(rate_mbs=100.0, passes=2)
        assert by_position._features == by_keyword._features

    def test_build_replays_the_table_in_order(self):
        top_level_calls = []
        depth = [0]

        def spy_on(target):
            def spy(self, *args, **kwargs):
                # Features enable their own prerequisites (scrubber ->
                # integrity, admission -> timeseries); count only the
                # calls build() itself makes.
                if depth[0] == 0:
                    top_level_calls.append(target)
                depth[0] += 1
                try:
                    return getattr(Testbed, target)(self, *args, **kwargs)
                finally:
                    depth[0] -= 1

            return spy

        recording = type(
            "Recording", (Testbed,), {t: spy_on(t) for _, t in _FEATURES}
        )
        builder = recording.builder().scaled(0.05).with_seed(2)
        for name, _ in reversed(_FEATURES):  # request order must not matter
            getattr(builder, name)(**FEATURE_ARGS[name])
        built = builder.build()
        assert isinstance(built, recording)
        assert top_level_calls == [target for _, target in _FEATURES]

        imperative = Testbed.build(ExperimentConfig.scaled(0.05, seed=2))
        for name, target in _FEATURES:
            getattr(imperative, target)(**FEATURE_ARGS[name])
        assert subsystems(built) == subsystems(imperative)

    def test_an_unrequested_feature_is_not_applied(self):
        testbed = TestbedBuilder().scaled(0.05).with_journal().build()
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
        testbed = TestbedBuilder().scaled(0.05).with_options(disk_mbs=800.0).build()
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
        testbed = TestbedBuilder().scaled(0.06).with_seed(2).build()
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
        testbed = TestbedBuilder().scaled(0.05).build()
        repairer = testbed.make_repairer("CR")
        assert testbed.repairers == [repairer]


class TestRunUntilLimit:
    def test_limit_raises_convergence_error(self):
        """A predicate that never turns true must surface as a clear
        RuntimeError at the limit, not an infinite loop or a bare None."""
        from repro.errors import ConvergenceError

        testbed = TestbedBuilder().scaled(0.05).build()
        with pytest.raises(ConvergenceError, match="limit"):
            testbed.run_until(lambda: False, step=1.0, limit=3.0)

    def test_satisfied_predicate_returns_the_clock(self):
        testbed = TestbedBuilder().scaled(0.05).build()
        end = testbed.run_until(
            lambda: testbed.cluster.sim.now >= 2.0, step=1.0, limit=10.0
        )
        assert end >= 2.0


class TestReExports:
    @pytest.mark.parametrize(
        "name",
        [
            "Testbed",
            "TestbedBuilder",
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
