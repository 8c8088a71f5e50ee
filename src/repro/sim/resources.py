"""Shared bandwidth resources (links, disks) with per-tag accounting."""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SimulationError


class Resource:
    """A capacity-limited pipe (an uplink, a downlink, a disk, ...).

    ``capacity`` is in bytes per second. Flows crossing the resource share
    it max-min fairly (see :mod:`repro.sim.allocator`). The resource keeps
    cumulative byte counters per traffic tag so monitors can compute
    windowed utilisation (used for the paper's Fig. 5/6 measurements and
    by the ChameleonEC bandwidth monitor).
    """

    __slots__ = ("name", "capacity", "bytes_by_tag")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.name = name
        #: Capacity in bytes per second.
        self.capacity = float(capacity)
        #: Cumulative bytes moved through this resource, keyed by tag.
        self.bytes_by_tag: dict[str, float] = defaultdict(float)

    def account(self, tag: str, nbytes: float) -> None:
        """Attribute ``nbytes`` of transferred data to traffic tag ``tag``."""
        self.bytes_by_tag[tag] += nbytes

    @property
    def total_bytes(self) -> float:
        """All bytes ever moved through this resource."""
        return sum(self.bytes_by_tag.values())

    def bytes_for(self, tag: str) -> float:
        """Cumulative bytes for one tag."""
        return self.bytes_by_tag.get(tag, 0.0)

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
