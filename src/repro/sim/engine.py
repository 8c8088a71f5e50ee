"""The discrete-event simulation engine."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.sim.events import Event, EventQueue


class PeriodicHook:
    """Handle for a repeating callback installed via :meth:`Simulator.every`.

    The callback fires every ``interval`` seconds of virtual time until
    :meth:`cancel` is called. Cancellation is immediate: the pending
    event is marked dead in the queue and never dispatched.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_event", "_cancelled", "fires")

    def __init__(self, sim: "Simulator", interval: float, callback) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._cancelled = False
        self.fires = 0
        self._event = sim.schedule(interval, self._fire)

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` ran."""
        return self._cancelled

    def _fire(self) -> None:
        if self._cancelled:  # pragma: no cover - cancel kills the event
            return
        # Reschedule before running the callback so a callback that
        # cancels the hook tears down the *next* occurrence too.
        self._event = self._sim.schedule(self._interval, self._fire)
        self.fires += 1
        self._callback()

    def cancel(self) -> None:
        """Stop firing; the pending occurrence is dropped."""
        if self._cancelled:
            return
        self._cancelled = True
        self._event.cancel()


class Simulator:
    """Virtual-time event loop.

    All timestamps are seconds of simulated time; ``now`` is the current
    one, a plain attribute that only the loop writes (components read it,
    never assign it). Components schedule callbacks with :meth:`schedule`
    (relative) or :meth:`call_at` (absolute) and the owner drives the
    loop with :meth:`run`, which dispatches events in ``(time, seq)``
    order, ``seq`` counting requests.

    :meth:`defer` is ``schedule(0.0, ...)`` without the trip through the
    queue when none is needed: the event takes its ``seq`` when it is
    requested and is held beside the queue. When the callback that
    deferred it returns, the loop runs it inline if no live queued event
    comes before it, and otherwise queues it, where it waits its turn.
    It is queued as well when the run stops (:meth:`stop`, an exception)
    with it pending, and when it is requested outside :meth:`run`. The
    dispatch order is the same either way. ``events_dispatched`` counts
    every callback run, ``events_inline`` the deferred ones run inline.
    :meth:`quiet_now` says when an event deferred now would run next and
    alone, so that a caller may do its work in place instead.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        #: Current simulated time in seconds; written by the loop alone.
        self.now = 0.0
        self._running = False
        self._deferred: Event | None = None
        self.events_dispatched = 0
        self.events_inline = 0

    def peek_next_time(self) -> float | None:
        """Timestamp of the earliest pending event (None when drained).

        Lets drivers jump straight to the next event instead of probing
        the clock in blind fixed steps.
        """
        deferred = self._deferred
        if deferred is not None and not deferred.cancelled:
            return deferred.time  # now: nothing queued is earlier
        return self._queue.peek_time()

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now - 1e-9:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._queue.push(max(time, self.now), callback, *args)

    def defer(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run now, after the current event.

        Dispatched exactly where ``schedule(0.0, callback, *args)`` would
        be, but run inline when the current callback returns if no live
        queued event comes before it (class docstring). Holding a second
        deferred event queues the first.
        """
        event = self._queue.reserve(self.now, callback, *args)
        if not self._running:
            self._queue.insert(event)
            return event
        if self._deferred is not None:
            self._queue.insert(self._deferred)
        self._deferred = event
        return event

    def runs_next(self, event: Event | None) -> bool:
        """True when ``event`` is the deferred event and, as things stand,
        runs inline as soon as the current callback returns."""
        return (
            event is not None
            and event is self._deferred
            and self._running
            and not event.cancelled
            and not self._queue.precedes(event)
        )

    def quiet_now(self) -> bool:
        """True when the running loop has nothing more to dispatch at the
        current instant, as things stand: it was not stopped, holds no
        deferred event, and no live queued event is due now.

        An epoch opened now would then run next and alone, so a caller
        that runs it in place instead of deferring it dispatches every
        other event in the same relative ``(time, seq)`` order.
        """
        if not self._running or self._deferred is not None:
            return False
        next_time = self._queue.peek_time()
        return next_time is None or next_time > self.now

    def every(self, interval: float, callback: Callable[[], Any]) -> PeriodicHook:
        """Install a repeating sampling hook on the clock.

        ``callback()`` runs every ``interval`` seconds of virtual time,
        starting one interval from now, until the returned handle's
        :meth:`PeriodicHook.cancel` is called. Hooks are dispatched as
        ordinary queue events (stable FIFO order at equal timestamps),
        so a *read-only* callback — one that samples counters without
        mutating simulation state — cannot perturb the behaviour of any
        other scheduled work. This is the attachment point for the
        observability layer's :class:`~repro.obs.timeseries.TimeseriesRecorder`.
        """
        if interval <= 0:
            raise SimulationError(f"hook interval must be positive (got {interval})")
        return PeriodicHook(self, interval, callback)

    def run(self, until: float | None = None) -> float:
        """Process events (optionally only up to time ``until``).

        Returns the simulation time when the loop stops:

        * the queue drained — when ``until`` is given the clock advances
          exactly to ``until``, otherwise it stays at the last event;
        * the next event lies beyond ``until`` — the clock advances
          exactly to ``until``;
        * an event called :meth:`stop` — the clock stays at that event's
          timestamp, *even when* ``until`` was given and the queue is
          empty. A stopped run never jumps ahead of the event that
          stopped it, so ``run(until=...)`` callers can rely on
          ``now == until`` if and only if the run was not stopped early.
        """
        dispatched_before = self.events_dispatched
        inline_before = self.events_inline
        queue = self._queue
        heap = queue._heap  # one pop per queued event, no separate peek
        self._running = True
        stopped = False
        try:
            while self._running:
                event = self._deferred
                if event is not None:
                    self._deferred = None
                    if event.cancelled:
                        continue
                    if queue.precedes(event):
                        queue.insert(event)
                        continue
                    self.events_inline += 1
                else:
                    if not heap:
                        break
                    entry = heappop(heap)
                    time, _, event = entry
                    if event.cancelled:
                        continue
                    if until is not None and time > until:
                        heappush(heap, entry)
                        self.now = until
                        break
                    if time < self.now - 1e-9:
                        raise SimulationError("event queue produced a past event")
                    self.now = time
                self.events_dispatched += 1
                event.callback(*event.args)
            stopped = not self._running
        finally:
            self._running = False
            if self._deferred is not None:
                queue.insert(self._deferred)
                self._deferred = None
        registry = get_registry()
        if registry.enabled:
            registry.counter("sim.events_dispatched").inc(
                self.events_dispatched - dispatched_before
            )
            registry.counter("sim.events_inline").inc(self.events_inline - inline_before)
        if (
            not stopped
            and until is not None
            and self._queue.peek_time() is None
            and self.now < until
        ):
            self.now = until
        return self.now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._running = False

    def pending_events(self) -> int:
        """Number of live events still pending, a deferred one included."""
        deferred = self._deferred
        return len(self._queue) + (deferred is not None and not deferred.cancelled)
