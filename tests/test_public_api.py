"""The frozen ``repro`` public surface.

``repro.__all__`` is the supported API. This test pins it exactly:
adding or removing a name must be a deliberate edit here, and every
advertised name must actually resolve. ``Testbed`` is the sole
experiment facade (``Testbed.build(config)`` plus its ``enable_*``
methods); the deprecated ``Scenario`` never appears at top level.

The settable options are pinned the same way: a new engine or
controller keyword, a new ``Testbed`` feature, or any new defaulted
parameter anywhere on the public surface must be a deliberate edit to
:class:`TestOptionRatchet`.
"""

import inspect

import repro
from repro.api import Testbed
from repro.control import AdmissionController
from repro.journal import Journal, JournalShard
from repro.repair.engine import RepairEngine

FROZEN_SURFACE = (
    "GB",
    "KB",
    "MB",
    "AdmissionController",
    "AIMDPolicy",
    "BandwidthDegradation",
    "BandwidthMonitor",
    "ButterflyCode",
    "ChameleonRepair",
    "ChameleonRepairIO",
    "ChunkId",
    "Cluster",
    "CodingError",
    "ConventionalRepair",
    "ConvergenceError",
    "CoordinatorCrash",
    "ECPipe",
    "ErasureCode",
    "ExperimentConfig",
    "FailureDetector",
    "FailureInjector",
    "FailureReport",
    "FaultEvent",
    "FaultTimeline",
    "FlowInterruption",
    "HookEmitter",
    "IntegrityLedger",
    "IntegrityRecord",
    "Journal",
    "JournalRecord",
    "JournalShard",
    "JournalState",
    "KeyRouter",
    "LRCCode",
    "LatencyRecorder",
    "LatentSectorError",
    "Lease",
    "NetworkPartition",
    "Node",
    "NodeCrash",
    "PPR",
    "PlanError",
    "ProgressTracker",
    "RecoveryPlan",
    "ReliabilityModel",
    "RepairBoost",
    "RepairEquation",
    "RepairPlan",
    "RepairRunner",
    "RepairThroughputMeter",
    "ReproError",
    "RSCode",
    "RunTelemetry",
    "SchedulingError",
    "Scrubber",
    "Series",
    "ShardRouter",
    "SilentCorruption",
    "SimulationError",
    "Simulator",
    "SLOBreach",
    "SLOEvaluator",
    "SLOReport",
    "SLOSpec",
    "SLOVerdict",
    "Stripe",
    "StripeStore",
    "TimeseriesRecorder",
    "Testbed",
    "ToleranceExceeded",
    "TraceClient",
    "TransitioningTrace",
    "audit_fenced_writes",
    "execute_plan",
    "gbps",
    "interference_degree",
    "launch_clients",
    "loss_probability_curve",
    "make_code",
    "make_trace",
    "mbs",
    "payload_checksum",
    "place_stripes",
    "reconcile",
    "ycsb_a",
)


class TestFrozenSurface:
    def test_all_matches_frozen_surface_exactly(self):
        assert repro.__all__ == FROZEN_SURFACE

    def test_all_is_immutable(self):
        assert isinstance(repro.__all__, tuple)

    def test_every_advertised_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_scenario_not_in_public_surface(self):
        assert "Scenario" not in repro.__all__
        assert not hasattr(repro, "Scenario")

    def test_facade_entry_points_present(self):
        assert "Testbed" in repro.__all__


def public_signatures():
    """``(qualified name, signature)`` of every public callable: each
    function in ``repro.__all__``, plus ``__init__`` and the public
    methods defined on each exported class."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj):
            yield name, inspect.signature(obj)
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    yield f"{name}.{attr}", inspect.signature(value)


def keywords(function) -> set[str]:
    return {
        name
        for name, param in inspect.signature(function).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }


#: Every option on the public surface, as ``Qualname.parameter``,
#: sorted: the defaulted parameters :func:`public_signatures` yields.
PUBLIC_OPTIONS = (
    "AIMDPolicy.__init__.backoff",
    "AIMDPolicy.__init__.floor",
    "AIMDPolicy.__init__.high_water",
    "AIMDPolicy.__init__.low_water",
    "AIMDPolicy.__init__.recover",
    "AdmissionController.__init__.policy",
    "BandwidthMonitor.__init__.window",
    "ButterflyCode.__init__.k",
    "ButterflyCode.__init__.m",
    "ButterflyCode.repair_equation.available",
    "ChameleonRepair.__init__.check_interval",
    "ChameleonRepair.__init__.enable_reordering",
    "ChameleonRepair.__init__.enable_retuning",
    "ChameleonRepair.__init__.io_aware",
    "ChameleonRepair.__init__.straggler_threshold",
    "ChameleonRepair.__init__.t_phase",
    "Cluster.__init__.disk_bw",
    "Cluster.__init__.link_bw",
    "Cluster.__init__.num_clients",
    "Cluster.__init__.num_nodes",
    "Cluster.__init__.oversubscription",
    "Cluster.__init__.racks",
    "Cluster.__init__.sim",
    "Cluster.make_transfer.name",
    "Cluster.make_transfer.read_disk",
    "Cluster.make_transfer.tag",
    "Cluster.make_transfer.write_disk",
    "Cluster.transfer_resources.read_disk",
    "Cluster.transfer_resources.write_disk",
    "CoordinatorCrash.__init__.shard",
    "ErasureCode.repair_equation.available",
    "ExperimentConfig.__init__.check_interval",
    "ExperimentConfig.__init__.chunk_mb",
    "ExperimentConfig.__init__.code",
    "ExperimentConfig.__init__.concurrency",
    "ExperimentConfig.__init__.disk_mbs",
    "ExperimentConfig.__init__.link_gbps",
    "ExperimentConfig.__init__.num_chunks",
    "ExperimentConfig.__init__.num_clients",
    "ExperimentConfig.__init__.num_nodes",
    "ExperimentConfig.__init__.oversubscription",
    "ExperimentConfig.__init__.racks",
    "ExperimentConfig.__init__.requests_per_client",
    "ExperimentConfig.__init__.seed",
    "ExperimentConfig.__init__.slice_mb",
    "ExperimentConfig.__init__.straggler_threshold",
    "ExperimentConfig.__init__.t_phase",
    "ExperimentConfig.__init__.trace",
    "ExperimentConfig.scaled.scale",
    "FailureDetector.__init__.heartbeat_interval",
    "FaultTimeline.__init__.seed",
    "FaultTimeline.arm.chunk_store",
    "FaultTimeline.arm.injector",
    "FaultTimeline.churn.crashes",
    "FaultTimeline.churn.degradations",
    "FaultTimeline.churn.interruptions",
    "FaultTimeline.churn.straggler_duration",
    "FaultTimeline.churn.stragglers",
    "FaultTimeline.corrupt.chunk",
    "FaultTimeline.corrupt.flips",
    "FaultTimeline.crash_coordinator.shard",
    "FaultTimeline.fluctuate.amplitude",
    "FaultTimeline.fluctuate.fraction",
    "FaultTimeline.interrupt_flow.count",
    "FaultTimeline.rot.corruptions",
    "FaultTimeline.rot.flips",
    "FaultTimeline.rot.max_per_stripe",
    "FaultTimeline.rot.sector_errors",
    "FaultTimeline.sector_error.chunk",
    "FlowInterruption.__init__.count",
    "IntegrityLedger.__init__.records",
    "IntegrityLedger.__init__.unexplained",
    "IntegrityRecord.__init__.detected_at",
    "IntegrityRecord.__init__.detected_by",
    "IntegrityRecord.__init__.restored_at",
    "Journal.__init__.lease_duration",
    "Journal.__init__.sim",
    "Journal.append.chunk",
    "Journal.append.shard",
    "Journal.fence.shard",
    "JournalRecord.__init__.chunk",
    "JournalRecord.__init__.payload",
    "JournalRecord.__init__.shard",
    "JournalState.open_work.shard",
    "LatencyRecorder.__init__.name",
    "LatentSectorError.__init__.chunk",
    "Lease.__init__.shard",
    "NetworkPartition.__init__.duration",
    "NetworkPartition.__init__.groups",
    "ProgressTracker.__init__.cancelled_count",
    "ProgressTracker.__init__.completed_count",
    "ProgressTracker.__init__.tasks",
    "ProgressTracker.__init__.threshold",
    "ProgressTracker.track.chunk_key",
    "RecoveryPlan.__init__.adopted_from_store",
    "RecoveryPlan.__init__.blocked",
    "RecoveryPlan.__init__.completed",
    "RecoveryPlan.__init__.demoted",
    "RecoveryPlan.__init__.epoch",
    "RecoveryPlan.__init__.lost",
    "RecoveryPlan.__init__.requeue",
    "RecoveryPlan.__init__.shard",
    "ReliabilityModel.__init__.k",
    "ReliabilityModel.__init__.m",
    "ReliabilityModel.__init__.node_capacity_bytes",
    "ReliabilityModel.__init__.node_lifetime_seconds",
    "RepairBoost.__init__.seed",
    "RepairBoost.make_plan.destination",
    "RepairEquation.__init__.coefficients",
    "RepairEquation.__init__.read_fraction",
    "RepairPlan.__init__.parent",
    "RepairPlan.__init__.read_fraction",
    "RepairThroughputMeter.windowed_throughput.until",
    "RunTelemetry.__init__.baseline_p99",
    "RunTelemetry.__init__.chunks_lost",
    "RunTelemetry.__init__.ledger",
    "RunTelemetry.__init__.repair_finished_at",
    "RunTelemetry.__init__.repair_started_at",
    "RunTelemetry.__init__.timeseries",
    "RunTelemetry.__init__.unverified_chunks",
    "SLOBreach.__init__.detail",
    "SLOBreach.__init__.window",
    "SLOReport.__init__.verdicts",
    "SLOSpec.__init__.description",
    "SLOVerdict.__init__.breaches",
    "SLOVerdict.__init__.note",
    "Scrubber.__init__.ledger",
    "Scrubber.__init__.passes",
    "Scrubber.__init__.slice_size",
    "Series.__init__.times",
    "Series.__init__.values",
    "SilentCorruption.__init__.chunk",
    "SilentCorruption.__init__.flips",
    "Simulator.run.until",
    "StripeStore.__init__.stripes",
    "Testbed.enable_admission_control.policy",
    "Testbed.enable_admission_control.window",
    "Testbed.enable_failure_detector.heartbeat_interval",
    "Testbed.enable_timeseries.window",
    "Testbed.evaluate_slos.baseline_p99",
    "Testbed.evaluate_slos.specs",
    "Testbed.fail_nodes.count",
    "Testbed.inject_bitrot.sector_errors",
    "Testbed.inject_coordinator_crash.recover_after",
    "Testbed.inject_coordinator_crash.shard",
    "Testbed.make_repairer.shard",
    "Testbed.recover_repairer.name",
    "Testbed.recover_repairer.shard",
    "Testbed.run_until.limit",
    "Testbed.run_until.step",
    "Testbed.start_foreground.num_clients",
    "Testbed.start_foreground.trace",
    "Testbed.start_foreground.transition_segments",
    "Testbed.start_scrubber.passes",
    "TimeseriesRecorder.__init__.window",
    "TimeseriesRecorder.latest.default",
    "TimeseriesRecorder.to_dict.prefix",
    "TimeseriesRecorder.track_latency.name",
    "ToleranceExceeded.__init__.at",
    "ToleranceExceeded.__init__.lost_chunks",
    "TraceClient.__init__.burst_off",
    "TraceClient.__init__.burst_on",
    "TraceClient.__init__.key_offset",
    "TraceClient.__init__.latency",
    "TraceClient.__init__.slice_size",
    "TransitioningTrace.active_generator.time",
    "launch_clients.slice_size",
    "loss_probability_curve.model",
    "make_trace.seed",
    "place_stripes.seed",
    "reconcile.chunk_store",
    "reconcile.shard",
    "ycsb_a.seed",
)


class TestOptionRatchet:
    def test_repair_engine_options(self):
        assert keywords(RepairEngine.__init__) == {
            "chunk_size", "slice_size", "concurrency",
            "max_retries", "retry_backoff", "chunk_timeout", "journal",
        }

    def test_admission_controller_options(self):
        assert keywords(AdmissionController.__init__) == {
            "policy", "baseline_p99",
        }
        assert keywords(Testbed.enable_admission_control) == {
            "policy", "baseline_p99", "window",
        }

    def test_journal_options(self):
        assert keywords(Journal.__init__) == {"lease_duration"}
        assert keywords(Testbed.enable_journal) == set()

    def test_journal_has_one_write_surface(self):
        """The per-kind writes live on the coordinator's shard view only."""
        writes = {
            name for name in vars(JournalShard)
            if not name.startswith("_") and callable(vars(JournalShard)[name])
        }
        assert writes == {
            "coordinator_started", "chunk_enqueued", "plan_chosen",
            "reads_issued", "attempt_failed", "decode_verified",
            "writeback_committed", "chunk_lost",
        }
        assert not writes & set(vars(Journal))

    def test_public_options(self):
        """Every defaulted parameter on the public surface is an option;
        adding, removing or renaming one is an edit to
        :data:`PUBLIC_OPTIONS`."""
        options = sorted(
            f"{qualname}.{param.name}"
            for qualname, signature in public_signatures()
            for param in signature.parameters.values()
            if param.default is not inspect.Parameter.empty
        )
        assert options == list(PUBLIC_OPTIONS)
