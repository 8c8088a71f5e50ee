"""repro — a reproduction of ChameleonEC (HPCA 2025).

ChameleonEC exploits the tunability of erasure coding for
low-interference repair: it decomposes repair plans into upload/download
tasks dispatched on idle bandwidth, establishes tunable transmission
paths (Algorithm 1), and re-schedules around stragglers.

Quick start::

    from repro import (
        Cluster, RSCode, place_stripes, FailureInjector,
        BandwidthMonitor, ChameleonRepair, MB,
    )

    cluster = Cluster(num_nodes=20, num_clients=4)
    code = RSCode(10, 4)
    store = place_stripes(code, 200, cluster.storage_ids, chunk_size=64 * MB)
    injector = FailureInjector(cluster, store)
    report = injector.fail_nodes([0])
    monitor = BandwidthMonitor(cluster)
    monitor.start()
    chameleon = ChameleonRepair(
        cluster, store, injector, monitor,
        chunk_size=64 * MB, slice_size=1 * MB,
    )
    chameleon.repair(report.failed_chunks)
    while not chameleon.done:
        cluster.sim.run(until=cluster.sim.now + 10.0)
    print(chameleon.meter.throughput / 1e6, "MB/s")
"""

from repro.analysis import ReliabilityModel, loss_probability_curve
from repro.api import ShardRouter, Testbed
from repro.cluster import (
    GB,
    KB,
    MB,
    ChunkId,
    Cluster,
    FailureInjector,
    FailureReport,
    Node,
    Stripe,
    StripeStore,
    gbps,
    mbs,
    place_stripes,
)
from repro.codes import (
    ButterflyCode,
    ErasureCode,
    LRCCode,
    RSCode,
    RepairEquation,
    make_code,
)
from repro.control import AdmissionController, AIMDPolicy
from repro.core import ChameleonRepair, ChameleonRepairIO
from repro.errors import (
    CodingError,
    ConvergenceError,
    PlanError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.events import HookEmitter
from repro.experiments.config import ExperimentConfig
from repro.faults import (
    BandwidthDegradation,
    CoordinatorCrash,
    FaultEvent,
    FaultTimeline,
    FlowInterruption,
    LatentSectorError,
    NetworkPartition,
    NodeCrash,
    SilentCorruption,
    ToleranceExceeded,
)
from repro.integrity import (
    IntegrityLedger,
    IntegrityRecord,
    Scrubber,
    payload_checksum,
)
from repro.journal import (
    Journal,
    JournalRecord,
    JournalShard,
    JournalState,
    Lease,
    RecoveryPlan,
    audit_fenced_writes,
    reconcile,
)
from repro.metrics import (
    LatencyRecorder,
    RepairThroughputMeter,
    interference_degree,
)
from repro.monitor import BandwidthMonitor, FailureDetector, ProgressTracker
from repro.obs import (
    MetricsRegistry,
    Series,
    TimeseriesRecorder,
    Tracer,
    build_report,
    get_tracer,
    set_tracer,
    use_tracer,
    write_chrome_trace,
)
from repro.repair import (
    ConventionalRepair,
    ECPipe,
    PPR,
    RepairBoost,
    RepairPlan,
    RepairRunner,
    execute_plan,
)
from repro.sim import Simulator
from repro.slo import (
    RunTelemetry,
    SLOBreach,
    SLOEvaluator,
    SLOReport,
    SLOSpec,
    SLOVerdict,
)
from repro.traffic import (
    KeyRouter,
    TraceClient,
    TransitioningTrace,
    launch_clients,
    make_trace,
    ycsb_a,
)

__version__ = "0.1.0"

# The frozen public surface (tested by tests/test_public_api.py): a
# tuple so nothing can append to it at runtime. Additions are API
# decisions — make them here, deliberately, together with that test.
__all__ = (
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
