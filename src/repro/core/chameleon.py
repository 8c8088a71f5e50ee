"""The ChameleonEC coordinator: phases, dispatch, plans, re-scheduling.

Brings the three design techniques together (Section III):

* the repair is cut into *phases* of ``t_phase`` seconds; each phase
  admits as many failed chunks as the idle bandwidth is estimated to
  absorb (Section III-A);
* every admitted chunk gets a tunable plan from Algorithm 1
  (Section III-B);
* while a phase runs, progress checks detect stragglers and react with
  transmission re-ordering and repair re-tuning (Section III-C).

Multi-node failures are repaired in Section III-D's ``priority`` order:
stripes with more failed chunks first.

This module is the scheduling *policy* only; the chunk lifecycle it
schedules — launch, retries, journaling, crash teardown — is
:class:`~repro.repair.engine.RepairEngine`'s.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import SchedulingError
from repro.monitor.bandwidth import BandwidthMonitor
from repro.monitor.progress import ProgressTracker, TrackedTask
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.repair.engine import RepairEngine
from repro.repair.instance import PlanInstance
from repro.core.dispatch import TaskDispatcher
from repro.core.planner import build_plan


class ChameleonRepair(RepairEngine):
    """Coordinator driving low-interference repair of a chunk batch.

    ``engine_options`` are :class:`~repro.repair.engine.RepairEngine`'s
    keyword arguments (``concurrency``, retry, timeout and journal
    settings). ``concurrency`` bounds concurrent reconstruction
    streams on top of the phase machinery, which already admits chunks
    against the idle-bandwidth budget.
    """

    name = "ChameleonEC"

    def __init__(
        self,
        cluster: Cluster,
        store: StripeStore,
        injector: FailureInjector,
        monitor: BandwidthMonitor,
        *,
        chunk_size: float,
        slice_size: float,
        t_phase: float = 20.0,
        check_interval: float = 1.0,
        straggler_threshold: float = 2.0,
        enable_reordering: bool = True,
        enable_retuning: bool = True,
        io_aware: bool = False,
        **engine_options,
    ) -> None:
        if t_phase <= 0:
            raise SchedulingError("t_phase must be positive")
        super().__init__(
            cluster,
            store,
            injector,
            chunk_size=chunk_size,
            slice_size=slice_size,
            **engine_options,
        )
        self.monitor = monitor
        self.t_phase = t_phase
        self.check_interval = check_interval
        self.enable_reordering = enable_reordering
        self.enable_retuning = enable_retuning
        self.dispatcher = TaskDispatcher(
            injector, monitor, chunk_size=chunk_size, io_aware=io_aware
        )
        self.tracker = ProgressTracker(threshold=straggler_threshold)
        self._paused: list[PlanInstance] = []
        self._phase_admitted = 0
        self._phase_budget_exhausted = False
        self._replanned: set[ChunkId] = set()
        self.phase_index = 0
        self.retunes = 0
        self.reorders = 0
        self.replans = 0
        self._phase_span = None
        self._phase_baseline = (0, 0, 0)

    # -- chunk ordering (Section III-D) -------------------------------------------

    def _order_chunks(self, chunks: list[ChunkId]) -> list[ChunkId]:
        # Stripes with more failed chunks are the most exposed: give
        # their chunks higher repair priority.
        per_stripe = Counter(c.stripe for c in chunks)
        return sorted(
            chunks, key=lambda c: (-per_stripe[c.stripe], c.stripe, c.index)
        )

    # -- phase machinery -----------------------------------------------------------

    def _begin(self) -> None:
        self._start_phase()

    def _start_phase(self) -> None:
        if self._finished or self._crashed:
            return
        self.phase_index += 1
        self.dispatcher.begin_phase()
        self._phase_admitted = 0
        self._phase_budget_exhausted = False
        tracer = get_tracer()
        if tracer.enabled:
            self._phase_span = tracer.span(
                "phase", track="scheduler", index=self.phase_index
            )
            self._phase_baseline = (len(self.completed), self.retunes, self.reorders)
        self._schedule()
        phase_end = self.cluster.sim.now + self.t_phase
        self.cluster.sim.schedule(self.check_interval, self._progress_check, phase_end)
        self.cluster.sim.call_at(phase_end, self._end_phase)

    def _schedule(self) -> None:
        """Continuously select failed chunks into the running phase.

        Section III-A: chunks are admitted one at a time until the
        accumulated (per-node) estimated repair time would exceed
        T_phase. An in-flight cap bounds concurrent chunk repairs, the
        same reconstruction-stream limit real systems apply; completed
        chunks free slots for further admissions within the same phase.
        """
        if self._crashed:
            return
        remaining: list[ChunkId] = []
        pending = list(self.pending)
        self.pending = []
        for i, chunk in enumerate(pending):
            if (
                self._phase_budget_exhausted
                or len(self.in_flight) >= self.concurrency
            ):
                remaining.extend(pending[i:])
                break
            if chunk.stripe in self._stripes_busy:
                remaining.append(chunk)
                continue
            if not self.injector.is_repairable(chunk):
                # Crashes took more of this stripe than the code
                # tolerates: re-queueing would spin forever.
                self._mark_lost(chunk)
                continue
            snap = self.dispatcher.load.snapshot()
            try:
                dispatch = self.dispatcher.dispatch_chunk(chunk, self.store.code)
            except SchedulingError:
                remaining.append(chunk)
                continue
            if dispatch.estimated_time > self.t_phase and self._phase_admitted > 0:
                # Would overrun the phase: try again next phase. (The
                # first chunk is always admitted, otherwise a chunk whose
                # lone repair exceeds t_phase would starve forever.)
                self.dispatcher.load.restore(snap)
                remaining.append(chunk)
                remaining.extend(pending[i + 1 :])
                self._phase_budget_exhausted = True
                break
            self._launch(dispatch)
            self._phase_admitted += 1
        self.pending = remaining + self.pending
        self._maybe_finish()

    def _launch(self, dispatch) -> None:
        plan = build_plan(dispatch, self.store.code, self.injector)
        instance = self._start(
            dispatch.chunk,
            plan,
            relays=sorted(dispatch.source_downloads),
            uploaders=dispatch.participants,
            estimated_time=dispatch.estimated_time,
            phase=self.phase_index,
        )
        expectation = self.cluster.sim.now + max(
            dispatch.estimated_time, self.check_interval
        )
        for transfer in instance.uploads.values():
            self.tracker.track(transfer, expectation, chunk_key=instance)

    def _retry_ready(self, chunk: ChunkId) -> None:
        self.pending.insert(0, chunk)
        self._schedule()

    def _released(self, chunk: ChunkId, instance: PlanInstance) -> None:
        if instance in self._paused:
            self._paused.remove(instance)
        # The next attempt (after a failure, or a later re-adoption) may
        # be re-planned again.
        self._replanned.discard(chunk)

    def _on_crash(self) -> None:
        self._paused.clear()
        self.tracker.tasks.clear()
        self._close_phase_span()

    def _end_phase(self) -> None:
        if self._finished or self._crashed:
            return
        # Postponed tasks that never got their restart window resume now.
        for instance in self._paused:
            instance.resume()
        self._paused.clear()
        self.tracker.clear_finished()
        self._close_phase_span()
        self._start_phase()

    def _close_phase_span(self) -> None:
        if self._phase_span is None:
            return
        completed, retunes, reorders = self._phase_baseline
        self._phase_span.finish(
            admitted=self._phase_admitted,
            completed=len(self.completed) - completed,
            retunes=self.retunes - retunes,
            reorders=self.reorders - reorders,
        )
        self._phase_span = None

    def _on_finish(self) -> None:
        self._close_phase_span()
        registry = get_registry()
        if registry.enabled:
            registry.counter("chameleon.chunks_repaired").inc(len(self.completed))
            registry.counter("chameleon.retunes").inc(self.retunes)
            registry.counter("chameleon.reorders").inc(self.reorders)
            registry.counter("chameleon.replans").inc(self.replans)

    # -- straggler-aware re-scheduling (Section III-C) -------------------------------

    def _progress_check(self, phase_end: float) -> None:
        if self._finished or self._crashed:
            return
        if self.cluster.sim.now >= phase_end - 1e-9:
            return
        now = self.cluster.sim.now
        for task in self.tracker.delayed_tasks(now):
            self._handle_straggler(task)
        self._resume_ready()
        next_check = min(now + self.check_interval, phase_end)
        if next_check > now + 1e-9:
            self.cluster.sim.call_at(next_check, self._progress_check, phase_end)

    def _handle_straggler(self, task: TrackedTask) -> None:
        instance: PlanInstance = task.chunk_key
        transfer = task.transfer
        if instance.done or transfer.done or transfer.cancelled:
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "straggler.detected",
                track="scheduler",
                task=transfer.name,
                task_id=transfer.id,
                chunk=str(instance.plan.chunk),
                expected_finish=task.expected_finish,
                completed_slices=transfer.completed_slices,
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("chameleon.stragglers_detected").inc()
        # Strongest reaction first: if this chunk's repair has barely
        # moved, re-tune the *plan* — re-dispatch against the bandwidth
        # the monitor sees now, which substitutes the straggling node
        # entirely (MDS codes have m - 1 spare candidates). This is the
        # plan-level half of "re-tunes task transmissions and repair
        # plans to bypass unexpected stragglers".
        if self.enable_retuning and self._replan(instance, transfer):
            return
        downloader = instance.downloader_of(transfer)
        retuned = False
        if (
            self.enable_retuning
            and downloader is not None
            and downloader != instance.plan.destination
            and self._retune_is_useful(instance, transfer, downloader)
        ):
            # Repair re-tuning (Fig. 10(b)): redirect the delayed source
            # download to the destination so the relay's dependent
            # combine-upload stops waiting on it.
            replacement = instance.retune(transfer)
            self.retunes += 1
            if tracer.enabled:
                tracer.instant(
                    "plan.retuned",
                    track="scheduler",
                    kind="redirect",
                    chunk=str(instance.plan.chunk),
                    orig_task=transfer.name,
                    orig_task_id=transfer.id,
                    replacement=replacement.name,
                    replacement_id=replacement.id,
                )
            self.tracker.track(
                replacement,
                self.cluster.sim.now + self.check_interval * 2,
                chunk_key=instance,
            )
            retuned = True
        if self.enable_reordering and not retuned and instance not in self._paused:
            # Transmission re-ordering (Fig. 10(a)): postpone the tasks
            # stuck behind the straggler so their links serve other
            # chunks; restart when the straggler finishes (or at phase
            # end, whichever comes first).
            paused = instance.pause_downstream(transfer)
            if paused:
                self._paused.append(instance)
                self.reorders += 1
                if tracer.enabled:
                    tracer.instant(
                        "plan.reordered",
                        track="scheduler",
                        chunk=str(instance.plan.chunk),
                        orig_task=transfer.name,
                        orig_task_id=transfer.id,
                        paused=len(paused),
                    )
                transfer.on_complete.append(
                    lambda _t, inst=instance: self._wake(inst)
                )

    def _replan(self, instance: PlanInstance, transfer) -> bool:
        """Re-dispatch a barely-started chunk around the straggler."""
        chunk = instance.plan.chunk
        if chunk in self._replanned:
            return False
        total = sum(t.size for t in instance.uploads.values())
        moved = sum(t.bytes_completed for t in instance.uploads.values())
        if total <= 0 or moved > 0.25 * total:
            return False
        # Fresh estimates: close the monitor window now so the straggler's
        # load is visible to the new dispatch.
        self.monitor.sample()
        if self.journal is not None:
            # Release the lease: the old attempt is about to be cancelled
            # and the chunk either relaunches (new plan_chosen) or queues.
            self.journal.attempt_failed(chunk, "replan")
        instance.cancel()
        self._release(chunk, instance)
        # Marked after the release, which re-arms re-planning: the
        # relaunch below is the one re-plan this attempt gets.
        self._replanned.add(chunk)
        try:
            dispatch = self.dispatcher.dispatch_chunk(chunk, self.store.code)
        except SchedulingError:
            self.pending.append(chunk)
            return True
        self.replans += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "plan.retuned",
                track="scheduler",
                kind="replan",
                chunk=str(chunk),
                orig_task=transfer.name,
                orig_task_id=transfer.id,
                destination=dispatch.destination,
            )
        self._launch(dispatch)
        return True

    def _retune_is_useful(
        self, instance: PlanInstance, transfer, downloader: int
    ) -> bool:
        """True when redirecting actually unblocks dependent work.

        Re-tuning pays off when (i) a meaningful amount of the delayed
        download is still outstanding and (ii) the relay downloading it
        still has its combine-upload to run (the dependent task that the
        redirect releases).
        """
        if transfer.bytes_completed > 0.75 * transfer.size:
            return False
        relay_upload = instance.uploads.get(downloader)
        return relay_upload is not None and not relay_upload.done

    def _wake(self, instance: PlanInstance) -> None:
        if instance in self._paused:
            self._paused.remove(instance)
            if not instance.done:
                instance.resume()

    def _resume_ready(self) -> None:
        # Defensive sweep: any paused chunk whose tracked tasks all
        # finished should not stay parked.
        for instance in list(self._paused):
            if all(t.done or t.cancelled for t in instance.uploads.values()):
                self._wake(instance)
