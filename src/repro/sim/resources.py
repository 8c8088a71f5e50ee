"""Shared bandwidth resources (links, disks), per-tag accounting, windows."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping

from repro.errors import SimulationError

#: Tag of repair transfers (a node crash tears these down as lost work).
REPAIR_TAG = "repair"

#: Tag for background scrubber traffic. Scrub flows are deliberately
#: *not* REPAIR_TAG: a node crash must not tear them down as lost repair
#: work, and FlowInterruption events target repair transfers only.
SCRUB_TAG = "scrub"

#: Tag of client requests; windowed views fold every tag but the two
#: above into it.
FOREGROUND_TAG = "foreground"


class Resource:
    """A capacity-limited pipe (an uplink, a downlink, a disk, ...).

    ``capacity`` is in bytes per second. Flows crossing the resource share
    it max-min fairly (see :mod:`repro.sim.allocator`). The resource keeps
    cumulative byte counters per traffic tag; :class:`ResourceWindows`
    differences them between window closes for the bandwidth monitor,
    the Fig. 5/6 link series and the timeseries recorder. ``_mark``,
    ``_slot`` and ``_seen`` are the allocator's per-recompute stamps (see
    :mod:`repro.sim.allocator`).
    """

    __slots__ = ("name", "capacity", "bytes_by_tag", "_mark", "_slot", "_seen")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.name = name
        #: Capacity in bytes per second.
        self.capacity = float(capacity)
        #: Cumulative bytes moved through this resource, keyed by tag.
        self.bytes_by_tag: dict[str, float] = defaultdict(float)
        self._mark = self._seen = self._slot = 0

    def account(self, tag: str, nbytes: float) -> None:
        """Attribute ``nbytes`` of transferred data to traffic tag ``tag``."""
        self.bytes_by_tag[tag] += nbytes

    @property
    def total_bytes(self) -> float:
        """All bytes ever moved through this resource."""
        return sum(self.bytes_by_tag.values())

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (used by throttling experiments).

        The caller must trigger a rate recomputation on the scheduler that
        owns the active flows.
        """
        if capacity <= 0:
            raise SimulationError(f"resource {self.name!r} needs positive capacity")
        self.capacity = capacity

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<Resource {self.name} cap={self.capacity:.3g}B/s>"


def non_repair_bytes(counts: Mapping[str, float]) -> float:
    """All bytes of a ``bytes_by_tag`` snapshot that are not repair
    traffic: what the monitor and Fig. 5/6 count as foreground."""
    return sum(counts.values()) - counts.get(REPAIR_TAG, 0.0)


class ResourceWindows:
    """Per-tag byte counts of a set of resources at the last window close.

    Each resource is tracked once (by name). :meth:`close` hands every
    view the counts before and after the window and moves the mark; the
    view does its own arithmetic. It never settles flows: a view that
    needs in-flight bytes counted calls ``flows.settle_now()`` first.
    """

    __slots__ = ("_marks",)

    def __init__(self, resources: Iterable[Resource] = ()) -> None:
        self._marks: dict[str, tuple[Resource, dict[str, float]]] = {}
        self.track(resources)

    def track(self, resources: Iterable[Resource]) -> None:
        """Start counting ``resources`` from now; known names are skipped."""
        for res in resources:
            if res.name not in self._marks:
                self._marks[res.name] = (res, dict(res.bytes_by_tag))

    def close(self) -> list[tuple[Resource, dict[str, float], dict[str, float]]]:
        """End the window: ``(resource, counts before, counts now)`` per
        tracked resource, in tracking order."""
        windows = []
        for name, (res, before) in self._marks.items():
            now = dict(res.bytes_by_tag)
            self._marks[name] = (res, now)
            windows.append((res, before, now))
        return windows
