"""Repair-progress tracking and straggler detection (Section III-C).

Every repair task carries an *expectation* — the time by which it should
finish given the idle bandwidth at dispatch. The tracker flags tasks
whose completion has slipped past the expectation by more than a
threshold; ChameleonEC reacts with transmission re-ordering and repair
re-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.transfers import Transfer


@dataclass
class TrackedTask:
    """One repair task (a transfer) plus its expected completion time."""

    transfer: Transfer
    expected_finish: float
    chunk_key: object = None  # which failed chunk this task serves


@dataclass
class ProgressTracker:
    """Collects tracked tasks and reports stragglers.

    Finished tasks are pruned as soon as a scan encounters them, so the
    per-check cost tracks the number of *live* tasks — over a long
    repair the tracked set would otherwise grow with every transfer ever
    dispatched. Pruned counts are kept for reporting.
    """

    threshold: float = 2.0
    tasks: list[TrackedTask] = field(default_factory=list)
    completed_count: int = 0
    cancelled_count: int = 0

    def track(self, transfer: Transfer, expected_finish: float, chunk_key=None) -> TrackedTask:
        """Register a task with its expected completion time."""
        if expected_finish < 0:
            raise SimulationError("expectation cannot be negative")
        task = TrackedTask(transfer, expected_finish, chunk_key)
        self.tasks.append(task)
        return task

    def _prune(self, task: TrackedTask) -> bool:
        """Count and drop a finished task; False if it is still live."""
        if task.transfer.done:
            self.completed_count += 1
            return True
        if task.transfer.cancelled:
            self.cancelled_count += 1
            return True
        return False

    def delayed_tasks(self, now: float) -> list[TrackedTask]:
        """Live tasks whose finish time exceeded expectation + threshold.

        Side effect: done/cancelled tasks encountered by the scan are
        dropped (their counts accumulate in ``completed_count`` /
        ``cancelled_count``), keeping repeated checks proportional to the
        live task set instead of the whole run's history.
        """
        live: list[TrackedTask] = []
        delayed: list[TrackedTask] = []
        for task in self.tasks:
            if self._prune(task):
                continue
            live.append(task)
            if now > task.expected_finish + self.threshold:
                delayed.append(task)
        self.tasks = live
        return delayed

    def pending_tasks(self) -> list[TrackedTask]:
        """Tracked tasks that are neither done nor cancelled."""
        return [
            t
            for t in self.tasks
            if not t.transfer.done and not t.transfer.cancelled
        ]

    def clear_finished(self) -> None:
        """Forget tasks that completed (phase-boundary housekeeping)."""
        live = []
        for task in self.tasks:
            if not self._prune(task):
                live.append(task)
        self.tasks = live
