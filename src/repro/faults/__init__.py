"""Runtime fault injection and recovery (``repro.faults``).

The paper's central claim is adaptivity: ChameleonEC re-tunes repair
plans when node conditions change *mid-repair* (Section III-C, Exp#4,
Exp#6). This subsystem makes such churn injectable and deterministic:

* :class:`FaultTimeline` — a seedable schedule of fault events (node
  crashes, link degradation with recovery (the paper's stragglers),
  single-flow interruptions, network partitions with automatic heal,
  silent payload corruption and latent sector errors) executed against
  the simulator's virtual clock;
* :class:`ToleranceExceeded` — the graceful outcome reported when a
  crash exhausts the erasure code's fault tolerance (instead of an
  unhandled exception mid-simulation).

Recovery itself lives where the scheduling decisions are made:
:class:`repro.repair.runner.RepairRunner` and
:class:`repro.core.chameleon.ChameleonRepair` retry failed chunk repairs
with backoff and re-plan around newly dead or degraded helpers. Every
fault and every retry lands in the Chrome trace and the ``faults.*`` /
``repair.retry.*`` metrics.
"""

from repro.faults.outcomes import ToleranceExceeded
from repro.faults.timeline import (
    BandwidthDegradation,
    CoordinatorCrash,
    FaultEvent,
    FaultTimeline,
    FlowInterruption,
    LatentSectorError,
    NetworkPartition,
    NodeCrash,
    SilentCorruption,
)

__all__ = [
    "BandwidthDegradation",
    "CoordinatorCrash",
    "FaultEvent",
    "FaultTimeline",
    "FlowInterruption",
    "LatentSectorError",
    "NetworkPartition",
    "NodeCrash",
    "SilentCorruption",
    "ToleranceExceeded",
]
