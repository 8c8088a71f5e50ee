"""Event queue primitives for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """A scheduled callback.

    Events carry no ordering of their own: the queue heaps
    ``(time, seq, event)`` tuples and ``seq`` is unique, so the tuple
    comparison is decided before it could reach the event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: tuple = ()
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A min-heap of events with stable FIFO ordering at equal timestamps."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reserve(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """An event for ``callback(*args)`` at ``time`` holding the next
        ``seq``, not yet queued: :meth:`insert` queues it later in the
        place its ``seq`` gives it."""
        return Event(time, next(self._counter), callback, args)

    def insert(self, event: Event) -> None:
        """Queue an event from :meth:`reserve`."""
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def precedes(self, event: Event) -> bool:
        """True when a live queued event comes before ``event`` in
        ``(time, seq)`` order."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return False
        time, seq, _ = heap[0]
        return time < event.time or (time == event.time and seq < event.seq)

    def pop(self) -> Event | None:
        """Pop the earliest live event, or None if the queue is drained."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the earliest live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
