"""Degraded reads: repair a temporarily unavailable chunk on the fly.

A degraded read (Section II-B) requests a chunk that sits on a failed or
unreachable node. Instead of repairing it back onto a storage node, the
surviving chunks are combined and delivered straight to the requesting
client; the metric is the latency from issuing the read until the chunk
is reconstructed at the client (Exp#10).

Verified reads: pass ``chunk_store`` to :func:`run_degraded_read` and
every helper payload is checksum-verified when the flows complete. A
corrupted helper is quarantined (and reported to the ledger), a lost one
(its payload gone since its upload landed) only quarantined, a fresh
plan is built over the remaining candidates — the same helper
reselection ChameleonEC's Algorithm 1 applies to stragglers — and the
read re-issues. The client only ever receives bytes reconstructed from
verified helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.datastore import ChunkStore
from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import SchedulingError
from repro.monitor.bandwidth import BandwidthMonitor
from repro.obs.metrics import get_registry
from repro.repair.base import RepairAlgorithm
from repro.repair.dataplane import decode_from_store, unsound_helpers
from repro.repair.instance import PlanInstance
from repro.repair.plan import RepairPlan


@dataclass
class DegradedRead:
    """Outcome of one on-the-fly reconstruction at a client."""

    chunk: ChunkId
    client: int
    issued_at: float
    completed_at: float | None = None
    #: Reconstructed bytes (only with a verified, ``chunk_store``-backed read).
    payload: np.ndarray | None = None
    #: Corrupted helpers detected (and quarantined) along the way.
    detected: list[ChunkId] = field(default_factory=list)
    #: Plans issued: 1 for a clean read, +1 per corrupt- or lost-helper fallback.
    attempts: int = 0

    @property
    def latency(self) -> float:
        """Seconds from the read request to reconstruction."""
        if self.completed_at is None:
            raise SchedulingError("degraded read has not completed")
        return self.completed_at - self.issued_at

    def throughput(self, chunk_size: float) -> float:
        """Effective read bandwidth in bytes/second."""
        return chunk_size / self.latency


def degraded_read_plan(
    algorithm: RepairAlgorithm,
    chunk: ChunkId,
    store: StripeStore,
    injector: FailureInjector,
    client_node: int,
) -> RepairPlan:
    """A repair plan whose destination is the requesting client."""
    return algorithm.make_plan(chunk, store.code, injector, destination=client_node)


def chameleon_degraded_read_plan(
    dispatcher,
    chunk: ChunkId,
    store: StripeStore,
    injector: FailureInjector,
    client_node: int,
) -> RepairPlan:
    """ChameleonEC's variant: dispatch tasks with the client pinned as
    destination, then run Algorithm 1 over the distribution."""
    from repro.core.planner import build_plan

    dispatch = dispatcher.dispatch_chunk(chunk, store.code, destination=client_node)
    return build_plan(dispatch, store.code, injector)


def run_degraded_read(
    cluster: Cluster,
    store: StripeStore,
    injector: FailureInjector,
    chunk: ChunkId,
    client_node: int,
    *,
    algorithm: RepairAlgorithm | None = None,
    monitor: BandwidthMonitor | None = None,
    slice_size: float,
    chunk_store: ChunkStore | None = None,
    ledger=None,
    max_attempts: int = 3,
) -> tuple[DegradedRead, PlanInstance]:
    """Launch a degraded read; returns immediately (run the simulator).

    With ``algorithm`` given, the plan uses that baseline's structure;
    otherwise a ChameleonEC dispatcher (requires ``monitor``) builds a
    tunable plan with the client as destination.

    With ``chunk_store`` given the read is *verified*: helper payloads
    are checksum-checked on completion, corrupted helpers quarantined
    (+ reported to ``ledger``), and the read falls back to an alternate
    plan — up to ``max_attempts`` plans in total — before delivering
    ``read.payload``.
    """
    if algorithm is None and monitor is None:
        raise SchedulingError("ChameleonEC degraded reads need a monitor")

    def build_plan_now() -> RepairPlan:
        if algorithm is not None:
            return degraded_read_plan(algorithm, chunk, store, injector, client_node)
        from repro.core.dispatch import TaskDispatcher

        dispatcher = TaskDispatcher(injector, monitor, chunk_size=store.chunk_size)
        dispatcher.begin_phase()
        return chameleon_degraded_read_plan(
            dispatcher, chunk, store, injector, client_node
        )

    read = DegradedRead(
        chunk=chunk, client=client_node, issued_at=cluster.sim.now
    )

    def finish(plan: RepairPlan) -> None:
        if chunk_store is None:
            read.completed_at = cluster.sim.now
            return
        bad, corrupt = unsound_helpers(chunk_store, chunk, plan)
        if bad:
            for helper in bad:
                injector.quarantine(helper)
            read.detected += corrupt
            if ledger is not None:
                for helper in corrupt:
                    ledger.record_detection(helper, "degraded_read")
            registry = get_registry()
            if registry.enabled:
                registry.counter("repair.integrity.degraded_read_fallbacks").inc()
            if read.attempts >= max_attempts:
                raise SchedulingError(
                    f"degraded read of {chunk} exhausted {max_attempts} plans "
                    f"against unsound helpers"
                )
            launch()
            return
        read.payload = decode_from_store(chunk_store, store.code, chunk, plan)
        read.completed_at = cluster.sim.now

    def launch() -> PlanInstance:
        plan = build_plan_now()
        read.attempts += 1
        instance = PlanInstance(
            cluster,
            plan,
            chunk_size=store.chunk_size,
            slice_size=slice_size,
            final_write=False,  # delivered to the client, not persisted
            on_complete=lambda inst: finish(plan),
        )
        instance.start()
        return instance

    return read, launch()
