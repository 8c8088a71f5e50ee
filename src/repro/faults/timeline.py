"""A deterministic, seedable schedule of runtime faults.

A :class:`FaultTimeline` is built up front (explicitly, event by event,
or via the seeded :meth:`FaultTimeline.churn` generator) and then
*armed* against a cluster: every event is scheduled on the simulator at
``arm-time + event.at`` seconds of virtual time. Event times are
relative offsets so the same timeline can be armed "when the repair
starts" without knowing that absolute timestamp in advance.

Event kinds:

* :class:`NodeCrash` — the node dies mid-run: all live repair transfers
  crossing any of its resources fail (their owners are notified and
  retry), and the node's chunks become new repair targets;
* :class:`BandwidthDegradation` — a node's uplink and downlink drop to
  a fraction of their capacity for a duration, then recover. This is
  the paper's straggler (a throttled NIC, a congested top-of-rack
  port): a deep enough factor trips the coordinator's straggler
  detection. :meth:`FaultTimeline.fluctuate` builds rapidly-changing
  link bandwidth out of the same event;
* :class:`FlowInterruption` — one (or a few) in-flight repair transfers
  are killed outright (a TCP reset, an I/O error on a source);
* :class:`SilentCorruption` — bit-rot: random bytes of a stored payload
  flip with *no externally visible signal* (no node dies, no transfer
  fails, no hook fires toward detectors — only the ``corrupted``
  bookkeeping hook for ledgers). Detection is entirely up to checksum
  verification (scrubber, verified repair, degraded reads);
* :class:`LatentSectorError` — the chunk's sectors become unreadable:
  every subsequent checksum verification of the chunk fails;
* :class:`CoordinatorCrash` — the repair *control plane* dies: the live
  repair coordinator is torn down mid-run (all its in-flight plan
  transfers cancelled), leaving recovery to whatever durable state it
  journalled (see :mod:`repro.journal` and
  :meth:`repro.api.Testbed.recover_repairer`);
* :class:`NetworkPartition` — the cluster splits into connectivity
  groups for a duration: every node stays *alive*, but traffic between
  groups is blackholed. Live transfers crossing the cut stall (their
  in-flight slice is re-sent after heal), new cross-cut slices are
  refused, and heal restores connectivity and releases the stalled
  transfers. The only fault kind where timeout is the wrong detector —
  see :class:`repro.monitor.FailureDetector` for the accrual detector
  that suspects unreachable helpers before ``chunk_timeout`` fires.

Overlapping degradations compose multiplicatively and restore exactly:
the timeline tracks each resource's base capacity and the stack of
active multipliers, so recovery never clobbers a concurrent fault.

Determinism: two timelines built with the same seed and the same calls
produce identical event sequences, and — because execution draws only on
the timeline's own RNG in virtual-time order — identical injections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.datastore import ChunkStore
from repro.cluster.failures import FailureInjector, FailureReport
from repro.cluster.stripes import ChunkId
from repro.cluster.topology import Cluster
from repro.errors import SimulationError
from repro.events import HookEmitter
from repro.sim.resources import REPAIR_TAG, SCRUB_TAG
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

#: Never throttle a resource below this fraction of its base capacity
#: (capacities must stay positive and estimates finite).
_MIN_CAPACITY_FRACTION = 1e-3

#: Capacity fraction a :meth:`FaultTimeline.churn` degradation leaves.
CHURN_DEGRADATION = 0.3


@dataclass(frozen=True)
class FaultEvent:
    """Base fault event; ``at`` is seconds after the timeline is armed."""

    at: float


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Node ``node_id`` dies ``at`` seconds after arming."""

    node_id: int


@dataclass(frozen=True)
class BandwidthDegradation(FaultEvent):
    """The node's uplink and downlink drop to ``factor`` for ``duration``."""

    node_id: int
    factor: float
    duration: float


@dataclass(frozen=True)
class FlowInterruption(FaultEvent):
    """Kill ``count`` in-flight repair transfers (seeded-random victims)."""

    count: int = 1


@dataclass(frozen=True)
class SilentCorruption(FaultEvent):
    """Flip ``flips`` bytes of ``chunk``'s stored payload, silently.

    ``chunk=None`` picks a random stored chunk at execution time (drawn
    from the timeline's own RNG over the store's deterministic chunk
    order, so equal seeds corrupt equal chunks).
    """

    chunk: ChunkId | None = None
    flips: int = 1


@dataclass(frozen=True)
class LatentSectorError(FaultEvent):
    """``chunk``'s sectors become unreadable (None = random stored chunk)."""

    chunk: ChunkId | None = None


@dataclass(frozen=True)
class CoordinatorCrash(FaultEvent):
    """The repair coordinator process dies ``at`` seconds after arming.

    A *control-plane* fault: no stored bytes are harmed and no node
    dies, but the coordinator's in-memory scheduling state evaporates
    and every repair transfer it owned is cancelled. The timeline only
    emits the ``coordinator_crashed`` hook — tearing down the actual
    repairer object(s) is the subscriber's job (the
    :class:`repro.api.Testbed` wires this to ``repairer.crash()``).

    ``shard`` targets one partition of a sharded control plane: only
    that shard's coordinator dies, sibling shards keep repairing.
    ``None`` (the default) kills every live coordinator — the whole
    plane. An unsharded coordinator is shard 0.
    """

    shard: int | None = None


@dataclass(frozen=True)
class NetworkPartition(FaultEvent):
    """The cluster splits into ``groups`` for ``duration`` seconds.

    ``groups`` is a tuple of node-id tuples; any node not named joins
    implicit group 0, so a single-group partition isolates that group
    from the rest of the cluster. Nodes stay alive and keep serving
    traffic *within* their side of the cut; only cross-group movement
    stalls. The heal is scheduled automatically at ``at + duration``.
    """

    groups: tuple[tuple[int, ...], ...] = ()
    duration: float = 1.0


@dataclass
class _Throttle:
    """Bookkeeping for one resource under one or more active faults."""

    base_capacity: float
    multipliers: list[float] = field(default_factory=list)

    def effective(self) -> float:
        capacity = self.base_capacity
        for m in self.multipliers:
            capacity *= m
        return max(capacity, self.base_capacity * _MIN_CAPACITY_FRACTION)


class FaultTimeline(HookEmitter):
    """Seedable fault schedule, armed once against a cluster."""

    HOOK_EVENTS = (
        "node_crashed",
        "degraded",
        "recovered",
        "flow_interrupted",
        "corrupted",
        "sector_error",
        "coordinator_crashed",
        "partitioned",
        "healed",
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.events: list[FaultEvent] = []
        self.injected: list[FaultEvent] = []
        self.cluster: Cluster | None = None
        self.injector: FailureInjector | None = None
        self.chunk_store: ChunkStore | None = None
        self._armed = False
        self._throttles: dict[str, _Throttle] = {}

    # -- building the schedule -------------------------------------------------

    def crash(self, at: float, node_id: int) -> "FaultTimeline":
        """Schedule a node crash."""
        self._add(NodeCrash(at=self._check_at(at), node_id=node_id))
        return self

    def degrade(
        self, at: float, node_id: int, *, factor: float, duration: float
    ) -> "FaultTimeline":
        """Schedule a link degradation with recovery after ``duration``."""
        if not 0 < factor <= 1:
            raise SimulationError("degradation factor must lie in (0, 1]")
        if duration <= 0:
            raise SimulationError("degradation duration must be positive")
        self._add(
            BandwidthDegradation(
                at=self._check_at(at),
                node_id=node_id,
                factor=factor,
                duration=duration,
            )
        )
        return self

    def interrupt_flow(self, at: float, count: int = 1) -> "FaultTimeline":
        """Schedule the interruption of ``count`` in-flight repair transfers."""
        if count < 1:
            raise SimulationError("must interrupt at least one flow")
        self._add(FlowInterruption(at=self._check_at(at), count=count))
        return self

    def corrupt(
        self, at: float, chunk: ChunkId | None = None, *, flips: int = 1
    ) -> "FaultTimeline":
        """Schedule a silent corruption (``chunk=None`` = random victim)."""
        if flips < 1:
            raise SimulationError("corruption must flip at least one byte")
        self._add(SilentCorruption(at=self._check_at(at), chunk=chunk, flips=flips))
        return self

    def sector_error(
        self, at: float, chunk: ChunkId | None = None
    ) -> "FaultTimeline":
        """Schedule a latent sector error (``chunk=None`` = random victim)."""
        self._add(LatentSectorError(at=self._check_at(at), chunk=chunk))
        return self

    def crash_coordinator(
        self, at: float, shard: int | None = None
    ) -> "FaultTimeline":
        """Schedule a repair control-plane crash.

        ``shard`` kills only that partition's coordinator; ``None``
        kills the whole plane.
        """
        if shard is not None and shard < 0:
            raise SimulationError("shard id must be >= 0")
        self._add(CoordinatorCrash(at=self._check_at(at), shard=shard))
        return self

    def partition(
        self, at: float, groups, *, duration: float
    ) -> "FaultTimeline":
        """Schedule a network partition healing after ``duration``.

        ``groups`` is an iterable of node-id groups (e.g. ``[[3, 4]]``
        isolates nodes 3 and 4 from everyone else; ``[[0, 1], [2, 3]]``
        makes a three-way split with the unlisted rest). A node may
        appear in at most one group.
        """
        if duration <= 0:
            raise SimulationError("partition duration must be positive")
        normalized = tuple(
            tuple(int(n) for n in members) for members in groups
        )
        if not normalized or not any(normalized):
            raise SimulationError("a partition needs at least one named node")
        seen: set[int] = set()
        for members in normalized:
            for node_id in members:
                if node_id in seen:
                    raise SimulationError(
                        f"node {node_id} appears in two partition groups"
                    )
                seen.add(node_id)
        self._add(
            NetworkPartition(
                at=self._check_at(at), groups=normalized, duration=duration
            )
        )
        return self

    def rot(
        self,
        *,
        chunks: list[ChunkId],
        horizon: float,
        corruptions: int = 0,
        sector_errors: int = 0,
        flips: int = 1,
        max_per_stripe: int | None = None,
    ) -> "FaultTimeline":
        """Generate seeded bit-rot over ``[0, horizon)`` — churn's twin.

        Victims for corruptions *and* sector errors are drawn from
        ``chunks`` in one combined draw without replacement, so no chunk
        is hit twice and every scheduled event damages a distinct chunk
        (which keeps detection accounting exact: injected == damaged).
        ``max_per_stripe`` bounds how many victims share a stripe —
        pass ``m - 1`` (or less, if nodes also fail) to keep the damage
        within the code's repair tolerance; the uncapped default models
        rot that has no respect for stripe boundaries. Two timelines
        with equal seeds and equal ``rot`` calls build identical event
        sequences.
        """
        if horizon <= 0:
            raise SimulationError("rot horizon must be positive")
        if corruptions < 0 or sector_errors < 0:
            raise SimulationError("rot event counts cannot be negative")
        if max_per_stripe is not None and max_per_stripe < 1:
            raise SimulationError("max_per_stripe must be >= 1 (or None)")
        total = corruptions + sector_errors
        if total == 0:
            return self
        if not chunks:
            raise SimulationError("rot needs candidate chunks")
        if total > len(chunks):
            raise SimulationError("cannot damage more chunks than candidates")
        rng = self.rng
        # ChunkId is frozen but unordered; sort by (stripe, index) so the
        # draw is independent of the caller's list order.
        pool = sorted(set(chunks), key=lambda c: (c.stripe, c.index))
        if len(pool) != len(chunks):
            raise SimulationError("rot candidate chunks must be unique")
        if max_per_stripe is None:
            picks = rng.choice(len(pool), size=total, replace=False)
            victims = [pool[int(i)] for i in picks]
        else:
            per_stripe: dict[int, int] = {}
            victims = []
            for i in rng.permutation(len(pool)):
                chunk = pool[int(i)]
                if per_stripe.get(chunk.stripe, 0) >= max_per_stripe:
                    continue
                per_stripe[chunk.stripe] = per_stripe.get(chunk.stripe, 0) + 1
                victims.append(chunk)
                if len(victims) == total:
                    break
            if len(victims) < total:
                raise SimulationError(
                    f"cannot place {total} rot victims with at most "
                    f"{max_per_stripe} per stripe"
                )
        for chunk in victims[:corruptions]:
            self.corrupt(float(rng.uniform(0, horizon)), chunk, flips=flips)
        for chunk in victims[corruptions:]:
            self.sector_error(float(rng.uniform(0, horizon)), chunk)
        return self

    def fluctuate(
        self,
        *,
        nodes: list[int],
        horizon: float,
        period: float,
        amplitude: tuple[float, float] = (0.3, 0.9),
        fraction: float = 0.5,
    ) -> "FaultTimeline":
        """Generate rapidly-fluctuating link bandwidth over ``[0, horizon)``.

        Models the "rapidly-changing network" regime (see PAPERS.md:
        *Multi-level Forwarding and Scheduling Recovery in
        Rapidly-changing Network*): every ``period`` seconds a seeded
        subset of ``fraction`` × len(nodes) nodes gets its link capacity
        cut to a factor drawn uniformly from ``amplitude``, recovering
        before the next wave lands — so the usable bandwidth surface
        shifts continuously under foreground, repair, and scrub traffic
        alike. Built entirely from :class:`BandwidthDegradation` events,
        so overlaps with other faults compose multiplicatively as usual.
        Two timelines with equal seeds and equal calls build identical
        waves.
        """
        if horizon <= 0:
            raise SimulationError("fluctuation horizon must be positive")
        if period <= 0 or period > horizon:
            raise SimulationError("fluctuation period must lie in (0, horizon]")
        if not nodes:
            raise SimulationError("fluctuation needs candidate nodes")
        low, high = amplitude
        if not 0 < low <= high <= 1:
            raise SimulationError("amplitude bounds must satisfy 0 < low <= high <= 1")
        if not 0 < fraction <= 1:
            raise SimulationError("fraction must lie in (0, 1]")
        rng = self.rng
        victims_per_wave = max(1, int(round(fraction * len(nodes))))
        waves = int(horizon / period)
        for wave in range(waves):
            onset = wave * period
            # Each wave ends just before the next begins; jitter the
            # per-node onset inside the first fifth of the period so
            # waves ramp rather than step.
            picks = rng.choice(
                np.asarray(nodes), size=victims_per_wave, replace=False
            )
            for node_id in picks:
                jitter = float(rng.uniform(0, 0.2 * period))
                duration = period - jitter - 1e-3 * period
                start = onset + jitter
                if start + duration > horizon:
                    duration = max(horizon - start, 1e-3 * period)
                self.degrade(
                    start,
                    int(node_id),
                    factor=float(rng.uniform(low, high)),
                    duration=duration,
                )
        return self

    def churn(
        self,
        *,
        nodes: list[int],
        horizon: float,
        crashes: int = 0,
        stragglers: int = 0,
        degradations: int = 0,
        interruptions: int = 0,
        straggler_duration: float = 3.0,
    ) -> "FaultTimeline":
        """Generate a random-but-seeded mix of events over ``[0, horizon)``.

        Crash targets are drawn without replacement (a node dies once);
        everything else samples ``nodes`` independently. Two timelines
        with equal seeds and equal ``churn`` calls build identical event
        sequences.
        """
        if horizon <= 0:
            raise SimulationError("churn horizon must be positive")
        if not nodes:
            raise SimulationError("churn needs candidate nodes")
        if crashes > len(nodes):
            raise SimulationError("cannot crash more nodes than candidates")
        rng = self.rng
        crash_targets = rng.choice(np.asarray(nodes), size=crashes, replace=False)
        for node_id in crash_targets:
            self.crash(float(rng.uniform(0, horizon)), int(node_id))
        for _ in range(stragglers):
            # A straggler is a short, deep degradation (5-20 % of the
            # links); the keyword order keeps the draws at, node, factor.
            self.degrade(
                float(rng.uniform(0, horizon)),
                int(rng.choice(np.asarray(nodes))),
                factor=float(rng.uniform(0.05, 0.2)),
                duration=straggler_duration,
            )
        for _ in range(degradations):
            self.degrade(
                float(rng.uniform(0, horizon)),
                int(rng.choice(np.asarray(nodes))),
                factor=CHURN_DEGRADATION,
                duration=float(rng.uniform(1.0, horizon / 2)),
            )
        for _ in range(interruptions):
            self.interrupt_flow(float(rng.uniform(0, horizon)))
        return self

    def sorted_events(self) -> list[FaultEvent]:
        """The schedule in injection order (stable for equal timestamps)."""
        return sorted(self.events, key=lambda e: e.at)

    # -- arming ---------------------------------------------------------------

    def arm(
        self,
        cluster: Cluster,
        injector: FailureInjector | None = None,
        chunk_store: ChunkStore | None = None,
    ) -> None:
        """Schedule every event at ``cluster.sim.now + event.at``.

        ``injector`` is required when the schedule contains crashes (a
        crash must know which chunks the dead node held); ``chunk_store``
        is required when it contains corruption or sector-error events
        (bit-rot damages actual stored bytes).
        """
        if self._armed:
            raise SimulationError("fault timeline already armed")
        if injector is None and any(isinstance(e, NodeCrash) for e in self.events):
            raise SimulationError("crash events need a FailureInjector")
        if chunk_store is None and any(
            isinstance(e, (SilentCorruption, LatentSectorError)) for e in self.events
        ):
            raise SimulationError("corruption events need a ChunkStore")
        self._armed = True
        self.cluster = cluster
        self.injector = injector
        self.chunk_store = chunk_store
        base = cluster.sim.now
        for event in self.sorted_events():
            cluster.sim.call_at(base + event.at, self._execute, event)

    @property
    def armed(self) -> bool:
        """True once :meth:`arm` ran."""
        return self._armed

    # -- execution ------------------------------------------------------------

    def _execute(self, event: FaultEvent) -> None:
        assert self.cluster is not None
        self.injected.append(event)
        if isinstance(event, NodeCrash):
            self._run_crash(event)
        elif isinstance(event, BandwidthDegradation):
            self._run_degradation(event)
        elif isinstance(event, FlowInterruption):
            self._run_interruption(event)
        elif isinstance(event, SilentCorruption):
            self._run_corruption(event)
        elif isinstance(event, LatentSectorError):
            self._run_sector_error(event)
        elif isinstance(event, CoordinatorCrash):
            self._run_coordinator_crash(event)
        elif isinstance(event, NetworkPartition):
            self._run_partition(event)
        else:  # pragma: no cover - the event set is closed
            raise SimulationError(f"unknown fault event {event!r}")

    def _run_crash(self, event: NodeCrash) -> None:
        assert self.cluster is not None and self.injector is not None
        node = self.cluster.node(event.node_id)
        if not node.alive:
            return
        report: FailureReport = self.injector.crash_node(event.node_id)
        # Every in-flight repair movement touching the dead node is lost;
        # foreground service continues (degraded reads keep serving).
        victims = self.cluster.transfers.fail_crossing(
            node.all_resources(),
            f"node {event.node_id} crashed",
            tag=REPAIR_TAG,
        )
        # Scrub reads crossing the dead node die too (their owner just
        # paces on to the next chunk; they are not repair work to retry).
        self.cluster.transfers.fail_crossing(
            node.all_resources(),
            f"node {event.node_id} crashed",
            tag=SCRUB_TAG,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.crash",
                track="faults",
                node=event.node_id,
                failed_chunks=len(report.failed_chunks),
                failed_transfers=len(victims),
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.crashes").inc()
            registry.counter("faults.transfers_killed").inc(len(victims))
        self.emit(
            "node_crashed",
            self,
            node_id=event.node_id,
            report=report,
            failed_transfers=victims,
        )

    def _run_degradation(self, event: BandwidthDegradation) -> None:
        assert self.cluster is not None
        node = self.cluster.node(event.node_id)
        targets = (node.uplink, node.downlink)
        for res in targets:
            throttle = self._throttles.get(res.name)
            if throttle is None:
                throttle = self._throttles[res.name] = _Throttle(res.capacity)
            throttle.multipliers.append(event.factor)
            res.set_capacity(throttle.effective())
        self.cluster.flows.capacity_changed(*targets)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.degradation",
                track="faults",
                node=event.node_id,
                factor=event.factor,
                duration=event.duration,
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.degradations").inc()
        self.emit("degraded", self, node_id=event.node_id, factor=event.factor)
        self.cluster.sim.schedule(event.duration, self._recover, event)

    def _recover(self, event: BandwidthDegradation) -> None:
        assert self.cluster is not None
        node = self.cluster.node(event.node_id)
        targets = (node.uplink, node.downlink)
        for res in targets:
            throttle = self._throttles[res.name]
            if event.factor in throttle.multipliers:
                throttle.multipliers.remove(event.factor)
            res.set_capacity(throttle.effective())
        self.cluster.flows.capacity_changed(*targets)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.degradation.recovered", track="faults", node=event.node_id
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.recoveries").inc()
        self.emit("recovered", self, node_id=event.node_id)

    def _run_interruption(self, event: FlowInterruption) -> None:
        assert self.cluster is not None
        live = self.cluster.transfers.live_transfers(tag=REPAIR_TAG)
        if not live:
            return
        count = min(event.count, len(live))
        picks = self.rng.choice(len(live), size=count, replace=False)
        victims = [live[int(i)] for i in sorted(picks)]
        for transfer in victims:
            self.cluster.transfers.fail(transfer, "flow interrupted")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.interruption",
                track="faults",
                transfers=[t.name for t in victims],
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.interruptions").inc(len(victims))
        self.emit("flow_interrupted", self, transfers=victims)

    def _resolve_victim(self, chunk: ChunkId | None) -> ChunkId | None:
        """The chunk an integrity fault lands on, or None to skip.

        Explicit targets whose payload is gone (their node died and took
        the bytes with it) are skipped — there is nothing left to rot.
        Random targets draw from the store's deterministic chunk order.
        """
        assert self.chunk_store is not None
        if chunk is not None:
            return chunk if self.chunk_store.has(chunk) else None
        candidates = list(self.chunk_store.chunks())
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]

    def _run_corruption(self, event: SilentCorruption) -> None:
        assert self.chunk_store is not None
        chunk = self._resolve_victim(event.chunk)
        if chunk is None:
            return
        positions = self.chunk_store.corrupt(
            chunk, rng=self.rng, flips=event.flips
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.corruption",
                track="faults",
                stripe=chunk.stripe,
                index=chunk.index,
                flips=len(positions),
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.corruption.injected").inc()
            registry.counter("faults.corruption.bytes_flipped").inc(len(positions))
        self.emit("corrupted", self, chunk=chunk, positions=positions)

    def _run_sector_error(self, event: LatentSectorError) -> None:
        assert self.chunk_store is not None
        chunk = self._resolve_victim(event.chunk)
        if chunk is None or self.chunk_store.is_unreadable(chunk):
            return
        self.chunk_store.mark_unreadable(chunk)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.sector_error",
                track="faults",
                stripe=chunk.stripe,
                index=chunk.index,
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.corruption.sector_errors").inc()
        self.emit("sector_error", self, chunk=chunk)

    def _run_coordinator_crash(self, event: CoordinatorCrash) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            detail = {} if event.shard is None else {"shard": event.shard}
            tracer.instant("fault.coordinator_crash", track="faults", **detail)
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.coordinator_crashes").inc()
        self.emit("coordinator_crashed", self, event=event)

    def _run_partition(self, event: NetworkPartition) -> None:
        assert self.cluster is not None
        pid = self.cluster.apply_partition(event.groups)
        stalled = [
            t for t in self.cluster.transfers.live_transfers() if t.stalled
        ]
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.partition",
                track="faults",
                groups=[list(g) for g in event.groups],
                duration=event.duration,
                stalled=len(stalled),
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.partitions").inc()
        self.emit("partitioned", self, event=event, stalled=stalled)
        self.cluster.sim.schedule(
            event.duration, self._heal_partition, pid, event
        )

    def _heal_partition(self, pid: int, event: NetworkPartition) -> None:
        assert self.cluster is not None
        self.cluster.heal_partition(pid)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fault.partition.healed",
                track="faults",
                groups=[list(g) for g in event.groups],
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.partition_heals").inc()
        self.emit("healed", self, event=event)

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _check_at(at: float) -> float:
        if at < 0:
            raise SimulationError("fault offsets cannot be negative")
        return float(at)

    def _add(self, event: FaultEvent) -> None:
        if self._armed:
            raise SimulationError("cannot add events to an armed timeline")
        self.events.append(event)
