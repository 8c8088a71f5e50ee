"""Stable public facade: build and drive a testbed in a few lines.

:class:`Testbed` is the complete implementation — cluster, stripe
placement, bandwidth monitor, foreground clients, repairer construction,
fault wiring: a :class:`repro.faults.FaultTimeline` installed on a
testbed forwards the chunks lost in a mid-run crash to every repairer
built through :meth:`Testbed.make_repairer`, so recovery "just works".

A testbed is built from an :class:`ExperimentConfig`; optional
features are then switched on by their own methods (``set_slos``,
``enable_timeseries``, ``enable_journal``, ``enable_integrity``,
``inject_bitrot``, ``start_scrubber``, ``enable_admission_control``,
``enable_failure_detector``)::

    from repro import Testbed, ExperimentConfig

    tb = Testbed.build(ExperimentConfig.scaled(
        0.05, code="rs-6-3", num_nodes=20, trace="ycsb-a"))
    tb.enable_journal()

Then::

    tb.start_foreground()
    report = tb.fail_nodes(1)
    repairer = tb.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)
    tb.run_until(lambda: repairer.done)
"""

from __future__ import annotations

import math

from repro.cluster.datastore import ChunkStore, drop_node_chunks, encode_and_load
from repro.cluster.failures import FailureInjector, FailureReport
from repro.cluster.node import mbs
from repro.cluster.placement import place_stripes
from repro.cluster.stripes import ChunkId
from repro.cluster.topology import Cluster
from repro.codes.registry import make_code
from repro.control import AdmissionController, AIMDPolicy
from repro.core.chameleon import ChameleonRepair
from repro.core.chameleon_io import ChameleonRepairIO
from repro.errors import ReproError
from repro.experiments.algorithms import (
    ALL_ALGORITHMS,
    BASELINES,
    BOOSTED,
    CHAMELEON_VARIANTS,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.driver import MAX_SIM_TIME, run_sim_until
from repro.faults.timeline import FaultTimeline
from repro.integrity.ledger import IntegrityLedger
from repro.integrity.scrubber import Scrubber
from repro.journal import Journal, reconcile
from repro.monitor.bandwidth import BandwidthMonitor
from repro.monitor.failure_detector import FailureDetector
from repro.obs.metrics import get_registry
from repro.obs.timeseries import TimeseriesRecorder
from repro.obs.tracer import get_tracer
from repro.repair.base import ConventionalRepair, ECPipe, PPR
from repro.repair.dataplane import DataPlane
from repro.repair.repairboost import RepairBoost
from repro.repair.runner import RepairRunner
from repro.slo import RunTelemetry, SLOEvaluator, SLOReport, SLOSpec
from repro.traffic.client import TraceClient
from repro.traffic.router import KeyRouter
from repro.traffic.schedule import TransitioningTrace
from repro.traffic.traces import make_trace


class ShardRouter:
    """Deterministic stripe-hash partitioning of the repair batch.

    Each chunk belongs to exactly one control-plane shard, derived from
    its stripe id by a Knuth multiplicative hash — stable across runs,
    processes and platforms (pure integer arithmetic, no PYTHONHASHSEED
    dependence), so a recovering coordinator re-derives the identical
    partition its predecessor used. All chunks of one stripe land on
    the same shard, keeping any stripe-local planning within one
    coordinator. With one shard everything maps to shard 0, making the
    sharded path degenerate exactly into the single-coordinator one.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ReproError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, chunk: ChunkId) -> int:
        """The shard owning ``chunk`` (constant per stripe)."""
        return ((chunk.stripe * 2654435761) & 0xFFFFFFFF) % self.num_shards

    def partition(self, chunks) -> list[list[ChunkId]]:
        """Split ``chunks`` into per-shard batches, preserving order."""
        parts: list[list[ChunkId]] = [[] for _ in range(self.num_shards)]
        for chunk in chunks:
            parts[self.shard_of(chunk)].append(chunk)
        return parts


class Testbed:
    """One ready-to-run testbed: cluster + stripes + monitor + clients.

    Builds the whole experiment substrate from an
    :class:`ExperimentConfig` and layers fault-timeline wiring,
    integrity, journalling and admission control on top.
    """

    __test__ = False  # "Test" prefix; keep pytest from collecting this

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        # Both specs are checked before anything is scheduled: a bad
        # code raises CodingError, an unknown trace SimulationError.
        self.code = make_code(config.code)
        make_trace(config.trace)
        self.cluster = Cluster(
            num_nodes=config.num_nodes,
            num_clients=config.num_clients,
            link_bw=config.link_bw,
            disk_bw=config.disk_bw,
            racks=config.racks,
            oversubscription=config.oversubscription,
        )
        # When tracing is on, timestamps follow this testbed's simulator
        # (successive testbeds lay out sequentially in one trace file).
        get_tracer().bind_clock(self.cluster.sim)
        # Enough stripes that the first failed node holds >= num_chunks
        # chunks (each node appears in a stripe with probability n/N).
        expected_per_stripe = self.code.n / config.num_nodes
        num_stripes = max(
            config.num_chunks,
            math.ceil(config.num_chunks / expected_per_stripe * 1.3),
        )
        self.store = place_stripes(
            self.code,
            num_stripes,
            self.cluster.storage_ids,
            chunk_size=int(config.chunk_size),
            seed=config.seed,
        )
        self.injector = FailureInjector(self.cluster, self.store)
        # The paper's 5 s monitoring window, shrunk with the phase length
        # so scaled runs still refresh estimates several times per phase.
        monitor_window = max(0.5, 5.0 * config.t_phase / 20.0)
        self.monitor = BandwidthMonitor(self.cluster, window=monitor_window)
        self.monitor.start()
        self.router = KeyRouter(self.store, self.cluster)
        self.clients: list[TraceClient] = []
        self.latency = None
        #: Every repairer built through :meth:`make_repairer`; crash
        #: reports from an installed fault timeline fan out to these.
        self.repairers: list = []
        self.fault_timeline: FaultTimeline | None = None
        self.chunk_store: ChunkStore | None = None
        self.ledger: IntegrityLedger | None = None
        self.dataplane: DataPlane | None = None
        self.scrubber: Scrubber | None = None
        self.journal: Journal | None = None
        self.timeseries: TimeseriesRecorder | None = None
        self.controller: AdmissionController | None = None
        self.slos: list[SLOSpec] = []
        #: Crash instants keyed by shard (a whole-plane crash records
        #: its instant under every shard it brings down), so
        #: overlapping crashes of different shards each keep their own
        #: MTTR attribution.
        self._coordinator_crash_times: dict[int, float] = {}
        #: Router installed by :meth:`start_sharded_repair`.
        self.shard_router: ShardRouter | None = None
        #: Node-crash chunks and scrub detections of shards whose
        #: coordinator was down when they were found, keyed by shard;
        #: the shard's replacement adopts them in :meth:`recover_repairer`.
        self._outage_chunks: dict[int, list[ChunkId]] = {}
        #: One entry per observed coordinator crash: the fraction of
        #: open (pending + leased) chunks stalled by it — the failover
        #: blast radius exp19 sweeps.
        self.crash_blasts: list[dict] = []
        #: Accrual failure detector (see :meth:`enable_failure_detector`).
        self.detector: FailureDetector | None = None
        #: Node hosting the journal/metadata service: the first client
        #: (the first storage node when there are none). Coordinators
        #: cut off from it get zombie-fenced.
        self._journal_home = (
            self.cluster.clients[0].id
            if self.cluster.clients
            else self.cluster.storage_nodes[0].id
        )
        #: Coordinators fenced while partitioned away, awaiting heal.
        self._zombies: list = []
        #: Zombie coordinators that stepped down after reconnecting.
        self.zombie_stepdowns = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, config: ExperimentConfig) -> "Testbed":
        """Build a testbed from a config."""
        return cls(config)

    # -- foreground -----------------------------------------------------------

    def start_foreground(
        self,
        trace: str | None = None,
        *,
        num_clients: int | None = None,
        transition_segments: list[tuple[float, str]] | None = None,
    ) -> None:
        """Launch closed-loop clients replaying the configured trace.

        ``num_clients`` (default: every client node) starts the first
        that many; a count outside ``0..len(cluster.clients)`` raises
        :class:`ReproError`. With timeseries enabled, the foreground latency recorder joins
        the sampler automatically.
        """
        from repro.metrics.latency import LatencyRecorder

        cfg = self.config
        available = len(self.cluster.clients)
        count = available if num_clients is None else num_clients
        if not 0 <= count <= available:
            raise ReproError(
                f"num_clients must lie in 0..{available} (got {count})"
            )
        self.latency = LatencyRecorder("foreground")
        for i, node in enumerate(self.cluster.clients[:count]):
            if transition_segments is not None:
                generator = TransitioningTrace(
                    self.cluster.sim,
                    [
                        (duration, make_trace(name, seed=cfg.seed * 97 + i * 13 + j))
                        for j, (duration, name) in enumerate(transition_segments)
                    ],
                )
            else:
                generator = make_trace(
                    trace if trace is not None else cfg.trace,
                    seed=cfg.seed * 97 + i * 13 + 1,
                )
            # Bursty ON/OFF behaviour with per-client hot-key affinity:
            # the occupied bandwidth then fluctuates over time and space,
            # the root causes (R1/R2) ChameleonEC is designed around.
            burst_factor = cfg.t_phase / 20.0
            client = TraceClient(
                self.cluster,
                node,
                generator,
                self.router,
                num_requests=cfg.requests_per_client,
                slice_size=cfg.slice_size,
                latency=self.latency,
                burst_on=8.0 * burst_factor,
                burst_off=5.0 * burst_factor,
                key_offset=i * 7919,
            )
            self.clients.append(client)
            client.start()
        if self.timeseries is not None:
            self.timeseries.track_latency(self.latency, name="foreground")

    def stop_foreground(self) -> None:
        """Ask every client to finish its in-flight request and stop."""
        for client in self.clients:
            client.stop()

    def foreground_done(self) -> bool:
        """True when every client has drained."""
        return all(c.done for c in self.clients)

    # -- failures -------------------------------------------------------------

    def fail_nodes(self, count: int = 1) -> FailureReport:
        """Fail the first ``count`` storage nodes; trim to num_chunks chunks.

        With integrity enabled, the dead nodes' stored payloads are
        dropped too (only the checksums survive as the write-back
        oracle).
        """
        if count < 1:
            raise ReproError(f"fail_nodes needs count >= 1 (got {count})")
        report = self.injector.fail_nodes(list(range(count)))
        per_node = max(1, self.config.num_chunks // count)
        chunks: list[ChunkId] = []
        for node_id in report.failed_nodes:
            node_chunks = [
                c for c in report.failed_chunks if self.store.node_of(c) == node_id
            ]
            chunks.extend(node_chunks[:per_node])
        report.failed_chunks = chunks[: self.config.num_chunks]
        if self.chunk_store is not None:
            for dead in report.failed_nodes:
                drop_node_chunks(self.chunk_store, self.store, dead)
        return report

    # -- repair ---------------------------------------------------------------

    def make_repairer(self, name: str, *, shard: int | None = None, **overrides):
        """Build a runner/coordinator for the named algorithm.

        The repairer is registered so the extra chunks a later node
        crash or scrub detection produces become its work; with
        integrity enabled it is also attached to the data plane
        (verified repair).

        With a journal, every repairer writes through
        :meth:`Journal.shard_view` of ``shard`` (default 0: an unsharded
        control plane is the one-shard plane). It crashes only with a
        :class:`~repro.faults.CoordinatorCrash` targeting its shard (or
        the whole plane), and only adopts node-crash chunks and scrub
        detections its shard owns. Naming a ``shard`` requires
        :meth:`enable_journal`. Most callers want
        :meth:`start_sharded_repair` instead of binding shards by hand.
        """
        spec = (name, dict(overrides))
        if shard is not None:
            self._require_journal("a sharded coordinator")
        if self.journal is not None:
            overrides.setdefault("journal", self.journal.shard_view(shard or 0))
        repairer = self._build_repairer(name, **overrides)
        repairer.rebuild_spec = spec
        self.repairers.append(repairer)
        if self.dataplane is not None:
            self.dataplane.attach(repairer)
        if self.controller is not None:
            self.controller.attach_repairer(repairer)
        return repairer

    def start_sharded_repair(
        self, name: str, chunks, *, shards: int, **overrides
    ) -> list:
        """Partition ``chunks`` across ``shards`` concurrent coordinators.

        A :class:`ShardRouter` deterministically hashes each chunk's
        stripe to a shard; one repairer per shard is built (each
        write-through to its own journal partition) and started on its
        partition, in shard order. The configured reconstruction
        parallelism is split evenly across shards (each gets at least
        1), so total parallelism matches the single-coordinator run.
        With ``shards=1`` this degenerates exactly into
        ``make_repairer(name).repair(chunks)``.

        Returns the repairers, indexed by shard. The router also routes
        later node-crash chunks and scrub detections to the owning
        shard.
        """
        self._require_journal("sharded repair")
        router = ShardRouter(shards)
        self.shard_router = router
        parts = router.partition(chunks)
        per_shard = max(1, self.config.concurrency // shards)
        repairers = []
        for shard in range(shards):
            merged = dict(overrides)
            merged.setdefault("concurrency", per_shard)
            repairers.append(self.make_repairer(name, shard=shard, **merged))
        for shard, repairer in enumerate(repairers):
            repairer.repair(parts[shard])
        return repairers

    def _build_repairer(self, name: str, **overrides):
        """Construct (without registering) the named algorithm's repairer."""
        cfg = self.config
        seed = cfg.seed + 1
        if name in BASELINES or name in BOOSTED:
            inner = {"CR": ConventionalRepair, "PPR": PPR, "ECPipe": ECPipe}[
                name.replace("RB+", "")
            ](seed=seed)
            algo = RepairBoost(inner, seed=seed) if name.startswith("RB+") else inner
            return RepairRunner(
                self.cluster,
                self.store,
                self.injector,
                algo,
                chunk_size=cfg.chunk_size,
                slice_size=cfg.slice_size,
                concurrency=overrides.pop("concurrency", cfg.concurrency),
                **overrides,
            )
        if name in CHAMELEON_VARIANTS:
            kwargs = dict(
                chunk_size=cfg.chunk_size,
                slice_size=cfg.slice_size,
                t_phase=cfg.t_phase,
                check_interval=cfg.check_interval,
                straggler_threshold=cfg.straggler_threshold,
                # Same reconstruction parallelism as the baselines so the
                # comparison isolates scheduling quality.
                concurrency=cfg.concurrency,
            )
            kwargs.update(overrides)
            if name == "ETRP":
                kwargs["enable_reordering"] = False
                kwargs["enable_retuning"] = False
                coordinator = ChameleonRepair(
                    self.cluster, self.store, self.injector, self.monitor, **kwargs
                )
                coordinator.name = "ETRP"
                return coordinator
            cls = ChameleonRepairIO if name == "ChameleonEC-IO" else ChameleonRepair
            return cls(self.cluster, self.store, self.injector, self.monitor, **kwargs)
        raise ReproError(f"unknown algorithm {name!r}; choose from {ALL_ALGORITHMS}")

    def run_until(self, predicate, step: float = 5.0, limit: float = MAX_SIM_TIME):
        """Advance virtual time until ``predicate()`` holds (or ``limit``)."""
        return run_sim_until(self.cluster, predicate, step, limit)

    # -- observability & SLOs --------------------------------------------------

    def enable_timeseries(self, *, window: float = 5.0) -> TimeseriesRecorder:
        """Record per-window virtual-time series for this testbed.

        Tracks every cluster resource (per-tag bandwidth attribution:
        foreground vs repair vs scrub shares of each link/disk), the
        process-global metrics registry when one is installed, and —
        once :meth:`start_foreground` runs — the foreground latency
        recorder (exact per-window P50/P99). Idempotent; returns the
        recorder, and a second call keeps the first one's ``window``.
        :meth:`enable_admission_control` starts a recorder too, so call
        this one first when the window is not the controller's. Stop it
        (``testbed.timeseries.stop()``) before driving the simulator
        with an unbounded ``run()``.
        """
        if self.timeseries is not None:
            return self.timeseries
        recorder = TimeseriesRecorder(self.cluster.sim, window=window)
        resources = []
        for node in self.cluster.storage_nodes + self.cluster.clients:
            resources.extend(node.all_resources())
        recorder.track_resources(resources)
        registry = get_registry()
        if registry.enabled:
            recorder.track_registry(registry)
        if self.latency is not None:
            recorder.track_latency(self.latency, name="foreground")
        recorder.start()
        self.timeseries = recorder
        return recorder

    def set_slos(self, *specs: SLOSpec) -> None:
        """Declare the objectives :meth:`evaluate_slos` will assert."""
        self.slos = list(specs)

    def evaluate_slos(
        self,
        *,
        specs: list[SLOSpec] | None = None,
        baseline_p99: float = 0.0,
    ) -> SLOReport:
        """Assert the declared SLOs against this run's telemetry.

        Builds a :class:`~repro.slo.RunTelemetry` from the testbed's own
        state — the timeseries recorder, the integrity ledger, repair
        timing from every repairer's meter, lost/unverified chunk counts
        — and evaluates ``specs`` (default: :meth:`set_slos`'s list).
        ``baseline_p99`` anchors the foreground-inflation ceiling; pass
        the calm-period P99 (e.g. from pre-chaos windows).
        """
        chosen = specs if specs is not None else self.slos
        if not chosen:
            raise ReproError(
                "no SLOs declared; call set_slos() or pass specs="
            )
        started = [
            r.meter.started_at
            for r in self.repairers
            if r.meter.started_at is not None
        ]
        finished = [r.meter.finished_at for r in self.repairers]
        all_done = bool(self.repairers) and all(
            f is not None for f in finished
        )
        lost = sum(len(r.lost) for r in self.repairers)
        unverified = 0
        if self.chunk_store is not None:
            unverified = len(self.chunk_store.unsound())
        telemetry = RunTelemetry(
            end_time=self.cluster.sim.now,
            timeseries=self.timeseries,
            baseline_p99=baseline_p99,
            repair_started_at=min(started) if started else None,
            repair_finished_at=(
                max(finished) if all_done and finished else None
            ),
            chunks_lost=lost,
            unverified_chunks=unverified,
            ledger=self.ledger,
        )
        return SLOEvaluator(chosen).evaluate(telemetry)

    # -- adaptive admission control --------------------------------------------

    def enable_admission_control(
        self,
        *,
        policy: AIMDPolicy | None = None,
        baseline_p99: float,
        window: float = 5.0,
    ) -> AdmissionController:
        """Close the telemetry loop: AIMD-throttle scrub/repair intensity.

        Enables the timeseries recorder if needed (``window`` only
        applies then — an existing recorder keeps its cadence) and
        installs an :class:`~repro.control.AdmissionController` that
        backs off the scrubber's rate and every repairer's parallelism
        when the per-window foreground P99 inflates past
        ``policy.high_water`` × ``baseline_p99`` (the calm-period P99),
        recovering additively when headroom returns. The scrubber and
        all repairers — existing and future, including post-crash
        replacements from :meth:`recover_repairer` — are attached
        automatically.

        Idempotent; returns the controller. Stop it
        (``testbed.controller.stop()``) alongside the recorder before
        driving the simulator with an unbounded ``run()``.
        """
        if self.controller is not None:
            return self.controller
        recorder = self.enable_timeseries(window=window)
        controller = AdmissionController(
            recorder,
            policy=policy,
            baseline_p99=baseline_p99,
        )
        if self.scrubber is not None:
            controller.attach_scrubber(self.scrubber)
        for repairer in self.repairers:
            controller.attach_repairer(repairer)
        controller.start()
        self.controller = controller
        return controller

    # -- partition tolerance ---------------------------------------------------

    def enable_failure_detector(
        self, *, heartbeat_interval: float = 0.5
    ) -> FailureDetector:
        """Start the accrual (phi) failure detector and wire it in.

        Heartbeats flow over the same partitionable links as data, so
        crashes, partitions and deep stragglers all starve them. The
        detector's suspicion feeds two consumers automatically: the
        failure injector filters suspected helpers out of fresh plans
        (best-effort — never affects repairability), and every started
        repairer fails its in-flight instances touching a fresh suspect
        (``helper_suspected``), re-planning *before* ``chunk_timeout``
        fires. Idempotent; returns the detector.
        """
        if self.detector is not None:
            return self.detector
        detector = FailureDetector(
            self.cluster, heartbeat_interval=heartbeat_interval
        ).start()
        detector.on("suspect", self._on_suspect)
        self.injector.suspicion = detector.is_suspected
        self.detector = detector
        return detector

    def _on_suspect(self, _detector, node_id, false_positive) -> None:
        for repairer in self.repairers:
            if repairer.running:
                repairer.helper_suspected(node_id)

    def place_coordinator(self, repairer, node_id: int) -> None:
        """Pin ``repairer``'s control process to a home node.

        A pinned coordinator participates in the zombie protocol: when a
        partition cuts its home off from the journal's home, the rest
        of the cluster fences its journal shard (it is presumed dead),
        so every write-through the isolated-but-alive coordinator makes
        is rejected (``journal.fenced_writes``). When the partition
        heals, the zombie observes its fence and steps down
        (:attr:`zombie_stepdowns`); :meth:`recover_repairer` then brings
        up a successor under the next epoch. Requires a journal.
        """
        self._require_journal("zombie fencing")
        repairer.home = self.cluster.node(node_id).id

    def _on_partitioned(self, _timeline, event, stalled) -> None:
        if self.journal is None:
            return
        home = self._journal_home
        for repairer in self.repairers:
            if (
                repairer.home is None
                or repairer in self._zombies
                or not repairer.running
                or self.cluster.reachable(repairer.home, home)
            ):
                continue
            # The metadata plane lost the coordinator: fence its shard.
            # The coordinator itself keeps running — it is a zombie, and
            # the epoch check (not its cooperation) protects the log.
            self.journal.fence(shard=repairer.shard)
            self._zombies.append(repairer)
            registry = get_registry()
            if registry.enabled:
                registry.counter("journal.zombie_fences").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant(
                    "journal.zombie_fence",
                    track="journal",
                    shard=repairer.shard,
                    home=repairer.home,
                )

    def _on_healed(self, _timeline, event) -> None:
        home = self._journal_home
        for repairer in list(self._zombies):
            if not self.cluster.reachable(repairer.home, home):
                continue  # still cut off by an overlapping partition
            # Reconnected: the zombie reads its fence and steps down.
            repairer.crash()
            self._zombies.remove(repairer)
            self.zombie_stepdowns += 1
            shard = repairer.shard
            self._coordinator_crash_times.setdefault(
                shard, self.cluster.sim.now
            )
            registry = get_registry()
            if registry.enabled:
                registry.counter("journal.zombie_stepdowns").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant(
                    "journal.zombie_stepdown",
                    track="journal",
                    shard=shard,
                )

    # -- durability & failover -------------------------------------------------

    def enable_journal(self) -> Journal:
        """Give the repair control plane a write-ahead journal.

        Every repairer built through :meth:`make_repairer` *afterwards*
        writes through the journal at each state transition, which is
        what makes :meth:`recover_repairer` possible after a
        :class:`~repro.faults.CoordinatorCrash`. Idempotent; returns the
        journal. Call before building repairers.
        """
        if self.journal is None:
            self.journal = Journal(self.cluster.sim)
        return self.journal

    def _require_journal(self, what: str, when: str = "first") -> None:
        if self.journal is None:
            raise ReproError(
                f"{what} needs a journal; call enable_journal() {when}"
            )

    def inject_coordinator_crash(
        self,
        at: float,
        *,
        recover_after: float | None = None,
        shard: int | None = None,
    ) -> FaultTimeline:
        """Kill the repair coordinator ``at`` seconds from now.

        Installs a one-event fault timeline whose
        :class:`~repro.faults.CoordinatorCrash` tears down every started
        repairer (see :meth:`recover_repairer`). With ``recover_after``
        set (the mean-time-to-recovery of the control plane), a
        replacement coordinator is brought up automatically that many
        seconds after the crash. Requires :meth:`enable_journal` first.

        ``shard`` narrows the blast to one control-plane partition:
        only that shard's coordinator dies and is later recovered,
        while sibling shards' transfers continue untouched.
        """
        self._require_journal("coordinator crash recovery")
        if recover_after is not None and recover_after < 0:
            raise ReproError("recover_after cannot be negative")
        timeline = FaultTimeline(seed=self.config.seed + 29).crash_coordinator(
            at, shard
        )
        self.install_faults(timeline)
        if recover_after is not None:
            self.cluster.sim.schedule(
                at + recover_after, lambda: self._auto_recover(shard)
            )
        return timeline

    def _on_coordinator_crash(self, _timeline, event) -> None:
        shard = event.shard
        crashed_shards: list[int] = []
        for repairer in self.repairers:
            if not repairer.running:
                continue
            if shard is not None and repairer.shard != shard:
                continue  # targeted crash: siblings keep running
            repairer.crash()
            crashed_shards.append(repairer.shard)
        if not crashed_shards or self.journal is None:
            return
        now = self.cluster.sim.now
        state = self.journal.state
        open_chunks = state.open_work()
        stalled = len(
            open_chunks if shard is None else state.open_work(shard=shard)
        )
        self.crash_blasts.append(
            {
                "at": now,
                "shard": shard,
                "open": len(open_chunks),
                "stalled": stalled,
                "blast": stalled / len(open_chunks) if open_chunks else 0.0,
            }
        )
        # The failure detector observed the death: fence the dead
        # epoch(s) so their leases are provably void at recovery time.
        # Only the crashed shards are fenced — fencing is the
        # blast-radius boundary.
        for r_shard in dict.fromkeys(crashed_shards):
            self._coordinator_crash_times[r_shard] = now
            self.journal.fence(shard=r_shard)

    def _crashed_repairers(self, shard: int | None) -> list:
        """Dead coordinators awaiting recovery (``shard`` narrows to one partition)."""
        return [
            r
            for r in self.repairers
            if r.crashed and (shard is None or r.shard == shard)
        ]

    def _auto_recover(self, shard: int | None = None) -> None:
        while self._crashed_repairers(shard):
            self.recover_repairer(shard=shard)

    def recover_repairer(
        self, name: str | None = None, *, shard: int | None = None, **overrides
    ):
        """Replay the journal and resume repair after a coordinator crash.

        Fences the dead epoch, replays the full journal into the
        state the dead coordinator had made durable, reconciles that
        intent against :class:`~repro.cluster.datastore.ChunkStore`
        ground truth (when integrity is enabled), and starts a fresh
        coordinator — same algorithm and options as the crashed one
        unless ``name`` / ``overrides`` say otherwise — on exactly the
        chunks that still need repairing. Chunks the journal proves
        committed are never re-executed.

        ``shard`` recovers only that partition's dead coordinator —
        fence, replay, reconcile and rebuild all scoped to the shard,
        under the shard's next epoch; sibling shards are untouched.
        With ``shard=None`` the most recent casualty's shard is
        recovered (an unsharded coordinator's shard is 0).

        Returns the new repairer, with the
        :class:`~repro.journal.RecoveryPlan` attached as
        ``repairer.recovery``.
        """
        self._require_journal("recovery", when="before repairing")
        crashed = self._crashed_repairers(shard)
        if not crashed:
            target = "" if shard is None else f" on shard {shard}"
            raise ReproError(f"no crashed repairer to recover{target}")
        # The recovery group: the targeted shard's casualties, or — when
        # untargeted — every casualty sharing the latest one's shard.
        shard_key = shard if shard is not None else crashed[-1].shard
        group = [r for r in crashed if r.shard == shard_key]
        self.journal.fence(shard=shard_key)
        plan = reconcile(
            self.journal.replay(),
            now=self.cluster.sim.now,
            chunk_store=self.chunk_store,
            shard=shard_key,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "journal.replay",
                track="journal",
                records=len(self.journal),
                epoch=plan.epoch,
                shard=shard_key,
                **plan.summary(),
            )
        spec_name, spec_overrides = group[-1].rebuild_spec
        for repairer in group:
            self.repairers.remove(repairer)
            if repairer in self._zombies:
                self._zombies.remove(repairer)
        merged = dict(spec_overrides)
        merged.update(overrides)
        replacement = self.make_repairer(
            name or spec_name, shard=shard_key, **merged
        )
        replacement.recovery = plan
        for chunk in self._outage_chunks.pop(shard_key, ()):
            if chunk not in plan.requeue:
                plan.requeue.append(chunk)
        # repair() opens a new journal epoch on the shard, so requeued
        # chunks get fresh leases owned by the replacement.
        replacement.repair(plan.requeue)
        crash_time = self._coordinator_crash_times.pop(shard_key, None)
        registry = get_registry()
        if registry.enabled:
            registry.counter("journal.recovery.completed").inc()
            registry.counter("journal.recovery.requeued_chunks").inc(
                len(plan.requeue)
            )
            if crash_time is not None:
                registry.histogram("journal.recovery.latency_s").observe(
                    self.cluster.sim.now - crash_time
                )
        if tracer.enabled:
            tracer.instant(
                "journal.resume",
                track="journal",
                algorithm=name or spec_name,
                requeued=len(plan.requeue),
            )
        return replacement

    # -- data integrity --------------------------------------------------------

    def enable_integrity(self) -> DataPlane:
        """Load real chunk payloads + checksums; attach verified repair.

        Every stripe is encoded over random data (128 bytes a chunk)
        and stored in a :class:`~repro.cluster.datastore.ChunkStore`
        with per-chunk CRC-32 metadata. Repairers (existing and future)
        get a verified :class:`~repro.repair.dataplane.DataPlane`:
        helper payloads are checksum-checked before decode,
        reconstructions before write-back, and corrupted helpers are
        quarantined + re-planned.
        Idempotent; returns the data plane.

        Call this *before* :meth:`install_faults` when the timeline
        carries corruption events (they damage actual stored bytes).
        """
        if self.dataplane is not None:
            return self.dataplane
        self.chunk_store = encode_and_load(
            self.store, payload_size=128, seed=self.config.seed + 17
        )
        # Nodes that already failed hold no data — only the checksums
        # survive (they are the write-back oracle for the repairs).
        for dead in sorted(self.cluster.failed_node_ids()):
            drop_node_chunks(self.chunk_store, self.store, dead)
        self.ledger = IntegrityLedger(self.cluster.sim)
        self.dataplane = DataPlane(
            self.chunk_store, self.store, self.injector, ledger=self.ledger
        )
        for repairer in self.repairers:
            self.dataplane.attach(repairer)
        return self.dataplane

    def start_scrubber(
        self, rate_mbs: float, *, passes: int | None = None
    ) -> Scrubber:
        """Start background scrubbing at ``rate_mbs`` MB/s of chunk data.

        Enables integrity if needed. The scrubber's read traffic flows
        through the simulator (it contends with foreground I/O and
        repairs); detections are quarantined and handed to the owning
        coordinators exactly as a dead node's chunks are — held for the
        replacement while the owning shard's coordinator is down.
        """
        if self.scrubber is not None:
            raise ReproError("scrubber already started")
        self.enable_integrity()
        self.scrubber = Scrubber(
            self.cluster,
            self.store,
            self.chunk_store,
            self.injector,
            rate=mbs(rate_mbs),
            slice_size=self.config.slice_size,
            ledger=self.ledger,
            passes=passes,
        )
        self.scrubber.on(
            "corruption_detected", lambda _s, chunk: self._adopt([chunk])
        )
        self.scrubber.start()
        if self.controller is not None:
            self.controller.attach_scrubber(self.scrubber)
        return self.scrubber

    def inject_bitrot(
        self, *, corruptions: int, sector_errors: int = 0, horizon: float
    ) -> FaultTimeline:
        """Schedule seeded bit-rot over the next ``horizon`` seconds.

        Enables integrity if needed, builds a
        :meth:`FaultTimeline.rot` schedule over every stored chunk, and
        installs it (offsets count from now). Returns the timeline.
        Rot that must respect stripe boundaries, or flip more than one
        byte, is built with :meth:`FaultTimeline.rot` and installed
        with :meth:`install_faults`.
        """
        self.enable_integrity()
        timeline = FaultTimeline(seed=self.config.seed + 23).rot(
            chunks=list(self.chunk_store.chunks()),
            horizon=horizon,
            corruptions=corruptions,
            sector_errors=sector_errors,
        )
        return self.install_faults(timeline)

    # -- faults ---------------------------------------------------------------

    def install_faults(self, timeline: FaultTimeline) -> FaultTimeline:
        """Arm ``timeline`` against this testbed, wiring crash recovery.

        Event offsets count from *now*; call this when the phase you
        want faulted (typically the repair) starts. When a crash kills a
        node, its chunks are forwarded to the owning running repairers
        via ``add_chunks`` so they are re-repaired in the same run. With
        integrity enabled, corruption events damage stored payloads and
        land in the ledger.
        """
        timeline.on("node_crashed", self._crash_to_repairers)
        timeline.on("coordinator_crashed", self._on_coordinator_crash)
        timeline.on("partitioned", self._on_partitioned)
        timeline.on("healed", self._on_healed)
        if self.ledger is not None:
            self.ledger.attach(timeline)
        timeline.arm(
            self.cluster, injector=self.injector, chunk_store=self.chunk_store
        )
        self.fault_timeline = timeline
        return timeline

    def _crash_to_repairers(self, _timeline, node_id, report, failed_transfers):
        if self.chunk_store is not None:
            for dead in report.failed_nodes:
                drop_node_chunks(self.chunk_store, self.store, dead)
        self._adopt(report.failed_chunks)

    def _adopt(self, chunks: list[ChunkId]) -> None:
        """Hand newly found repair work (a dead node's chunks, a scrub
        detection) to the coordinators that own it."""
        # Shard-bound coordinators only adopt the chunks their shard
        # owns; handing everything to everyone would double-repair each
        # chunk N times. An unsharded plane is the one-shard plane.
        router = self.shard_router or ShardRouter(1)

        def owned_by(shard: int) -> list[ChunkId]:
            return [c for c in chunks if router.shard_of(c) == shard]

        running: set[int] = set()
        for repairer in self.repairers:
            if not repairer.running or repairer in self._zombies:
                continue
            if repairer.shard is None:
                repairer.add_chunks(chunks)
                continue
            running.add(repairer.shard)
            mine = owned_by(repairer.shard)
            if mine:
                repairer.add_chunks(mine)
        # A shard whose coordinator is down (crashed, or a fenced
        # zombie) keeps its chunks for the replacement: the journal
        # never saw them, so replay cannot requeue them, and writing
        # them into the fenced window would be a stale write.
        down = {
            r.shard for r in self.repairers if r.crashed or r in self._zombies
        } - running - {None}
        for shard in sorted(down):
            self._outage_chunks.setdefault(shard, []).extend(owned_by(shard))


__all__ = [
    "ALL_ALGORITHMS",
    "ExperimentConfig",
    "ShardRouter",
    "Testbed",
]
