"""The frozen ``repro`` public surface.

``repro.__all__`` is the supported API. This test pins it exactly:
adding or removing a name must be a deliberate edit here, and every
advertised name must actually resolve. ``Testbed``/``TestbedBuilder``
are the sole experiment facade; the deprecated ``Scenario`` never
appears at top level.

The settable options are pinned the same way: a new engine or
controller keyword, a new builder feature, or any new defaulted
parameter anywhere on the public surface must be a deliberate edit to
:class:`TestOptionRatchet`.
"""

import inspect

import repro
from repro.api import _FEATURES, Testbed
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
    "TestbedBuilder",
    "ToleranceExceeded",
    "TraceClient",
    "TransientStraggler",
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
        assert "TestbedBuilder" in repro.__all__


def public_signatures():
    """``(qualified name, signature)`` of every public callable: each
    function in ``repro.__all__``, plus ``__init__`` and the public
    methods defined on each exported class (including the ``with_*``
    builder methods generated from ``_FEATURES``)."""
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
        assert keywords(Testbed.enable_journal) == {"lease_duration"}

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

    def test_feature_table_size(self):
        assert len(_FEATURES) == 7

    def test_public_option_count(self):
        """Every defaulted parameter on the public surface is an option;
        adding one moves this count on purpose."""
        options = sum(
            param.default is not inspect.Parameter.empty
            for _, signature in public_signatures()
            for param in signature.parameters.values()
        )
        assert options == 200
