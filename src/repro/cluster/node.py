"""Storage and client nodes with their bandwidth resources."""

from __future__ import annotations

from repro.sim.resources import Resource

# Unit helpers (bytes / bytes-per-second).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000


def gbps(value: float) -> float:
    """Convert gigabits per second to bytes per second."""
    return value * 1e9 / 8


def mbs(value: float) -> float:
    """Convert megabytes per second to bytes per second."""
    return value * 1e6


class Node:
    """A machine in the cluster.

    Every node owns four independent resources: full-duplex network
    up/downlinks plus disk read/write bandwidth (the latter matter in the
    paper's storage-bottlenecked scenarios, Exp#12). Clients get the same
    structure so YCSB traffic contends on their links too. Each pair
    starts symmetric (``link_bw`` each way, ``disk_bw`` each side); a
    slower resource is one ``set_capacity`` call on it.
    """

    def __init__(
        self, node_id: int, *, kind: str, link_bw: float, disk_bw: float
    ) -> None:
        self.id = node_id
        self.kind = kind
        self.uplink = Resource(f"n{node_id}.up", link_bw)
        self.downlink = Resource(f"n{node_id}.down", link_bw)
        self.disk_read = Resource(f"n{node_id}.dread", disk_bw)
        self.disk_write = Resource(f"n{node_id}.dwrite", disk_bw)
        self.alive = True

    @property
    def name(self) -> str:
        """Human-readable label, e.g. ``node-3`` or ``client-21``."""
        return f"{'client' if self.kind == 'client' else 'node'}-{self.id}"

    def links(self) -> tuple[Resource, Resource]:
        """The (uplink, downlink) pair."""
        return self.uplink, self.downlink

    def all_resources(self) -> tuple[Resource, ...]:
        """All four bandwidth resources of this node."""
        return (self.uplink, self.downlink, self.disk_read, self.disk_write)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<Node {self.name}{'' if self.alive else ' (failed)'}>"
