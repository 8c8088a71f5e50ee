"""The repair engine: one chunk lifecycle under every scheduling policy.

The paper compares *scheduling policies* — CR/PPR/ECPipe's greedy fill
against ChameleonEC's phased admission — on an otherwise identical
repair substrate. :class:`RepairEngine` is that substrate; a policy is a
subclass overriding the few template methods in
:attr:`RepairEngine.POLICY_HOOKS` (:class:`~repro.repair.runner.
RepairRunner`, :class:`~repro.core.chameleon.ChameleonRepair`).

What the engine owns, for every policy alike:

* **Launch.** Chunks of the same stripe are never repaired concurrently
  (their survivor sets interact); metadata is relocated when a chunk's
  repair is *launched* so two in-flight repairs can never pick
  conflicting destinations.
* **Fault recovery** (``repro.faults``). When an in-flight repair fails —
  a helper or destination crashed, a flow was interrupted, the failure
  detector suspected a helper, or the optional per-chunk timeout
  expired — the chunk is retried with a fresh plan after an exponential
  backoff (``retry_backoff * 2 ** (attempt - 1)``). A chunk whose stripe
  lost more nodes than the code tolerates, or that ran out of retries, is
  *lost*: the run still completes and reports a
  :class:`~repro.faults.outcomes.ToleranceExceeded` outcome instead of
  raising mid-simulation.
* **Durability** (``repro.journal``). Given a ``journal=``, every state
  transition is written through (enqueue, plan chosen, reads issued,
  attempt failed, commit, loss), so a *control-plane* crash —
  :meth:`RepairEngine.crash`, driven by
  :class:`repro.faults.CoordinatorCrash` — can be recovered by replaying
  the journal into a fresh repairer (see
  :meth:`repro.api.Testbed.recover_repairer`). A crashed engine goes
  inert: its in-flight plan instances are cancelled (all their
  REPAIR_TAG transfers die) and every pending timer fires into a no-op.
"""

from __future__ import annotations

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import SchedulingError
from repro.events import HookEmitter
from repro.faults.outcomes import ToleranceExceeded
from repro.metrics.throughput import RepairThroughputMeter
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.repair.instance import PlanInstance
from repro.repair.plan import RepairPlan


class RepairEngine(HookEmitter):
    """Drives the repair of a batch of failed chunks (policy supplied by a subclass).

    Events (see :class:`repro.events.HookEmitter`): ``all_done``,
    ``chunk_repaired``, ``chunk_failed``, ``retry``, ``chunk_lost``,
    ``tolerance_exceeded``, ``chunks_added``. Every callback receives the
    repairer as its first positional argument.
    """

    HOOK_EVENTS = (
        "all_done",
        "chunk_repaired",
        "chunk_failed",
        "retry",
        "chunk_lost",
        "tolerance_exceeded",
        "chunks_added",
    )

    #: The template methods a scheduling policy fills in. These are the
    #: only method names two policies may both define; everything else
    #: about a chunk's lifecycle lives here, once (pinned by
    #: ``tests/test_repair_engine.py``).
    POLICY_HOOKS = (
        "_order_chunks",
        "_begin",
        "_schedule",
        "_retry_ready",
        "_released",
        "_on_crash",
        "_on_finish",
    )

    def __init__(
        self,
        cluster: Cluster,
        store: StripeStore,
        injector: FailureInjector,
        *,
        chunk_size: float,
        slice_size: float,
        concurrency: int = 8,
        max_retries: int = 3,
        retry_backoff: float = 0.5,
        chunk_timeout: float | None = None,
        journal=None,
    ) -> None:
        if concurrency < 1:
            raise SchedulingError("concurrency must be at least 1")
        if max_retries < 0:
            raise SchedulingError("max_retries cannot be negative")
        if retry_backoff <= 0:
            raise SchedulingError("retry_backoff must be positive")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise SchedulingError("chunk_timeout must be positive")
        self.cluster = cluster
        self.store = store
        self.injector = injector
        self.chunk_size = chunk_size
        self.slice_size = slice_size
        #: Cap on concurrently repairing chunks (reconstruction streams).
        self.concurrency = concurrency
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.chunk_timeout = chunk_timeout
        #: Optional :class:`repro.journal.Journal` written through at
        #: every state transition (None = durability off).
        self.journal = journal
        self.meter = RepairThroughputMeter()
        self.pending: list[ChunkId] = []
        self.in_flight: dict[ChunkId, PlanInstance] = {}
        self.completed: list[ChunkId] = []
        self.lost: list[ChunkId] = []
        self.suspect_replans = 0
        self.retries = 0
        self.tolerance_exceeded: ToleranceExceeded | None = None
        self._attempts: dict[ChunkId, int] = {}
        self._retry_wait: set[ChunkId] = set()
        self._stripes_busy: set[int] = set()
        self._started = False
        self._finished = False
        self._crashed = False
        #: What the :class:`~repro.api.Testbed` that built this engine
        #: knows about it: the ``(algorithm, overrides)`` to rebuild it
        #: from after a crash, the node its control process is pinned to
        #: (None = unpinned) and, on a post-crash replacement, the
        #: :class:`~repro.journal.RecoveryPlan` it resumed from.
        self.rebuild_spec: tuple[str, dict] | None = None
        self.home: int | None = None
        self.recovery = None

    # -- policy hooks ------------------------------------------------------------

    def _order_chunks(self, chunks: list[ChunkId]) -> list[ChunkId]:
        """Queue order for ``chunks`` (default: as given)."""
        return chunks

    def _begin(self) -> None:
        """Start scheduling a freshly opened (or re-opened) batch."""
        self._schedule()

    def _schedule(self) -> None:
        """Launch pending chunks into free slots; must end in :meth:`_maybe_finish`."""
        raise NotImplementedError

    def _retry_ready(self, chunk: ChunkId) -> None:
        """``chunk``'s backoff elapsed: launch it or put it back in the queue."""
        raise NotImplementedError

    def _released(self, chunk: ChunkId, instance: PlanInstance) -> None:
        """``instance`` no longer repairs ``chunk`` (done, failed or replaced)."""

    def _on_crash(self) -> None:
        """Drop policy state after :meth:`crash` emptied the engine's."""

    def _on_finish(self) -> None:
        """The batch just finished (runs once per finish, before ``all_done``)."""

    # -- public API --------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once every requested chunk is repaired or written off.

        The finish latch, not the queues: :meth:`crash` empties the
        queues, and a dead coordinator never reports success — whatever
        fails next needs its replacement.
        """
        return self._finished and not self._crashed

    @property
    def crashed(self) -> bool:
        """True after :meth:`crash` — the repairer is permanently inert."""
        return self._crashed

    @property
    def running(self) -> bool:
        """True between :meth:`repair` and :meth:`crash` (finished batches re-open)."""
        return self._started and not self._crashed

    @property
    def shard(self) -> int | None:
        """The journal shard this engine writes through (None = no journal)."""
        return getattr(self.journal, "shard", None)

    def repair(self, chunks: list[ChunkId]) -> None:
        """Start repairing ``chunks`` (returns immediately; run the sim)."""
        if self._started:
            raise SchedulingError("repair already started")
        self._started = True
        self.pending = self._order_chunks(list(chunks))
        if self.journal is not None:
            self.journal.coordinator_started()
            for chunk in self.pending:
                self.journal.chunk_enqueued(chunk)
        self.meter.start(self.cluster.sim.now)
        if not self.pending:
            self._finish()
            return
        self._begin()

    def add_chunks(self, chunks: list[ChunkId]) -> list[ChunkId]:
        """Adopt newly failed chunks mid-run (a crash created more work).

        Chunks already pending, in flight, awaiting a retry, or written
        off as lost are skipped; a chunk that was repaired earlier but
        sat on the crashed node is moved back from ``completed`` into the
        work queue. A batch that had already finished re-opens. Returns
        the chunks actually adopted.
        """
        if self._crashed:
            # A dead coordinator adopts nothing; the journal already
            # holds whatever was in flight, and recovery will requeue it.
            return []
        if not self._started:
            raise SchedulingError("repair not started; pass chunks to repair()")
        busy = (
            set(self.pending)
            | set(self.in_flight)
            | self._retry_wait
            | set(self.lost)
        )
        adopted = [c for c in chunks if c not in busy]
        if not adopted:
            return []
        for chunk in adopted:
            if chunk in self.completed:
                self.completed.remove(chunk)
            if self.journal is not None:
                self.journal.chunk_enqueued(chunk)
        self.pending = self._order_chunks(self.pending + adopted)
        reopened = self._finished
        if reopened:
            # Un-finish the meter so throughput accounts for the
            # extended run.
            self.meter.finished_at = None
            self._finished = False
        self.emit("chunks_added", self, chunks=list(adopted))
        if reopened:
            self._begin()
        else:
            self._schedule()
        return adopted

    def set_concurrency(self, concurrency: int) -> None:
        """Retarget the parallelism cap mid-run (the controller's knob).

        Lowering the cap never cancels in-flight repairs — it only
        stops new launches until completions drain below the new cap
        (pacing, not preemption). Raising it immediately fills the
        freed slots from the pending queue.
        """
        if concurrency < 1:
            raise SchedulingError("concurrency must be at least 1")
        raised = concurrency > self.concurrency
        self.concurrency = concurrency
        if (
            raised
            and self._started
            and not self._crashed
            and not self._finished
            and self.pending
        ):
            self._schedule()

    def crash(self) -> None:
        """Tear the coordinator down mid-run (control-plane crash).

        Cancels every in-flight plan instance *silently* — a dead
        coordinator must not run its own retry or straggler logic —
        which kills all their live transfers, then empties the
        scheduling state so every pending timer (retry backoffs,
        watchdogs, a policy's own) fires into a no-op. The journal (if
        any) is NOT fenced here: fencing is written by whoever observes
        the crash (see ``Journal.fence``).
        """
        if self._crashed:
            return
        self._crashed = True
        for instance in list(self.in_flight.values()):
            instance.cancel()
        self.in_flight.clear()
        self.pending.clear()
        self._retry_wait.clear()
        self._stripes_busy.clear()
        self._on_crash()

    # -- launch ------------------------------------------------------------------

    def _start(self, chunk: ChunkId, plan: RepairPlan, **trace_fields) -> PlanInstance:
        """Run ``plan`` as ``chunk``'s next attempt (a free slot is the caller's job).

        ``trace_fields`` are the policy's own attributes of the
        ``plan.chosen`` trace event.
        """
        # Relocate eagerly: concurrent repairs then observe consistent
        # placement and cannot double-book a destination.
        self.store.relocate(chunk, plan.destination)
        self._stripes_busy.add(chunk.stripe)
        attempt = self._attempts[chunk] = self._attempts.get(chunk, 0) + 1
        if self.journal is not None:
            self.journal.plan_chosen(
                chunk,
                destination=plan.destination,
                sources=[s.node_id for s in plan.sources],
                attempt=attempt,
            )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "plan.chosen",
                track="scheduler",
                chunk=str(chunk),
                destination=plan.destination,
                **trace_fields,
                attempt=attempt,
            )
        instance = PlanInstance(
            self.cluster,
            plan,
            chunk_size=self.chunk_size,
            slice_size=self.slice_size,
            on_complete=lambda inst: self._chunk_done(chunk, inst),
            on_failed=lambda inst, reason: self._instance_failed(chunk, inst, reason),
        )
        self.in_flight[chunk] = instance
        instance.start()
        if self.journal is not None:
            self.journal.reads_issued(chunk, transfers=len(instance.uploads))
        if self.chunk_timeout is not None:
            self.cluster.sim.schedule(
                self.chunk_timeout, self._check_timeout, chunk, instance
            )
        return instance

    def _release(self, chunk: ChunkId, instance: PlanInstance) -> None:
        """Free ``chunk``'s slot: its in-flight entry and stripe lock."""
        self.in_flight.pop(chunk, None)
        self._stripes_busy.discard(chunk.stripe)
        self._released(chunk, instance)

    # -- suspicion ---------------------------------------------------------------

    def helper_suspected(self, node_id: int) -> int:
        """Fail in-flight repairs touching a suspected node (re-plan early).

        Called by the testbed when the failure detector raises a
        suspicion: instead of waiting for ``chunk_timeout`` to expire,
        every in-flight instance using the suspect is failed now, which
        routes it through the normal retry machinery — and the planner's
        suspicion filter keeps the suspect out of the fresh plan.
        Returns how many instances were failed.
        """
        if self._crashed:
            return 0
        failed = 0
        for chunk in list(self.in_flight):
            instance = self.in_flight.get(chunk)
            if (
                instance is not None
                and not instance.done
                and instance.uses_node(node_id)
            ):
                instance.fail(f"helper node {node_id} suspected")
                failed += 1
        self.suspect_replans += failed
        if failed:
            get_registry().counter("repair.suspect_replans").inc(failed)
        return failed

    # -- recovery ----------------------------------------------------------------

    def _check_timeout(self, chunk: ChunkId, instance: PlanInstance) -> None:
        if self._crashed:
            return
        if self.in_flight.get(chunk) is not instance or instance.done:
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "repair.timeout",
                track="scheduler",
                chunk=str(chunk),
                timeout=self.chunk_timeout,
            )
        get_registry().counter("repair.retry.timeouts").inc()
        instance.fail("chunk repair timed out")

    def _instance_failed(
        self, chunk: ChunkId, instance: PlanInstance, reason: str
    ) -> None:
        if self._crashed:
            return
        if self.in_flight.get(chunk) is not instance:
            return
        self._release(chunk, instance)
        if self.journal is not None:
            self.journal.attempt_failed(chunk, reason)
        get_registry().counter("repair.retry.failures").inc()
        self.emit("chunk_failed", self, chunk=chunk, reason=reason)
        if not self.injector.is_repairable(chunk):
            self._mark_lost(chunk)
        elif self._attempts.get(chunk, 1) > self.max_retries:
            get_registry().counter("repair.retry.exhausted").inc()
            self._mark_lost(chunk)
        else:
            delay = self.retry_backoff * 2 ** (self._attempts.get(chunk, 1) - 1)
            self._retry_wait.add(chunk)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant(
                    "repair.retry",
                    track="scheduler",
                    chunk=str(chunk),
                    reason=reason,
                    attempt=self._attempts.get(chunk, 1),
                    backoff=delay,
                )
            self.cluster.sim.schedule(delay, self._retry, chunk)
        self._schedule()

    def _retry(self, chunk: ChunkId) -> None:
        if self._crashed or chunk not in self._retry_wait:
            return
        self._retry_wait.discard(chunk)
        self.retries += 1
        get_registry().counter("repair.retry.attempts").inc()
        self.emit("retry", self, chunk=chunk, attempt=self._attempts.get(chunk, 0))
        self._retry_ready(chunk)

    def _mark_lost(self, chunk: ChunkId) -> None:
        self.lost.append(chunk)
        if self.journal is not None:
            self.journal.chunk_lost(chunk)
        get_registry().counter("repair.chunks_lost").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("repair.chunk_lost", track="scheduler", chunk=str(chunk))
        self.emit("chunk_lost", self, chunk=chunk)
        first = self.tolerance_exceeded is None
        self.tolerance_exceeded = ToleranceExceeded(
            failed_nodes=tuple(sorted(self.cluster.failed_node_ids())),
            lost_chunks=tuple(self.lost),
            at=self.cluster.sim.now,
        )
        if first:
            self.emit("tolerance_exceeded", self, outcome=self.tolerance_exceeded)

    # -- completion --------------------------------------------------------------

    def _chunk_done(self, chunk: ChunkId, instance: PlanInstance) -> None:
        if self._crashed:
            return
        self._release(chunk, instance)
        self.completed.append(chunk)
        if self.journal is not None:
            # Commit BEFORE announcing: if a chunk_repaired subscriber
            # (the integrity data plane) rejects the bytes, its requeue
            # re-opens the chunk with a later enqueue record.
            self.journal.decode_verified(chunk)
            self.journal.writeback_committed(chunk)
        self.meter.record_repair(self.cluster.sim.now, self.chunk_size)
        self.emit("chunk_repaired", self, chunk=chunk, plan=instance.plan)
        if self.pending:
            # A slot freed up: keep filling.
            self._schedule()
        else:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (
            self._started
            and not self._crashed
            and not self._finished
            and not self.pending
            and not self.in_flight
            and not self._retry_wait
        ):
            self._finish()

    def _finish(self) -> None:
        # The latch guards against double emission: a retry can reach
        # _finish through a failed launch (plan construction lost its
        # last survivor → _mark_lost → _maybe_finish) and then again on
        # its own way out.
        if self._finished:
            return
        self._finished = True
        self._on_finish()
        self.meter.finish(self.cluster.sim.now)
        self.emit("all_done", self)
