"""The simulated cluster: nodes, links, and transfer construction."""

from __future__ import annotations

import itertools

from repro.cluster.node import Node, gbps, mbs
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.flows import FlowScheduler
from repro.sim.resources import SCRUB_TAG, Resource
from repro.sim.transfers import Transfer, TransferManager


class Cluster:
    """A set of storage nodes and client machines sharing one simulator.

    Mirrors the paper's testbed: ``num_nodes`` storage instances plus
    ``num_clients`` machines replaying traces. All bandwidth parameters
    are in bytes/second (see :func:`repro.cluster.node.gbps` /
    :func:`repro.cluster.node.mbs` helpers).
    """

    def __init__(
        self,
        num_nodes: int = 20,
        num_clients: int = 4,
        *,
        link_bw: float = gbps(10),
        disk_bw: float = mbs(500),
        racks: int | None = None,
        oversubscription: float = 1.0,
        sim: Simulator | None = None,
    ) -> None:
        if num_nodes < 1:
            raise SimulationError("cluster needs at least one storage node")
        if racks is not None and not 1 <= racks <= num_nodes:
            raise SimulationError(f"racks must lie in [1, {num_nodes}]")
        if oversubscription < 1.0:
            raise SimulationError("oversubscription factor must be >= 1")
        self.sim = sim if sim is not None else Simulator()
        self.flows = FlowScheduler(self.sim)
        self.transfers = TransferManager(self.flows)
        self.storage_nodes: list[Node] = [
            Node(i, kind="storage", link_bw=link_bw, disk_bw=disk_bw)
            for i in range(num_nodes)
        ]
        self.clients: list[Node] = [
            Node(num_nodes + j, kind="client", link_bw=link_bw, disk_bw=disk_bw)
            for j in range(num_clients)
        ]
        self._by_id: dict[int, Node] = {
            node.id: node for node in self.storage_nodes + self.clients
        }
        # Optional two-level topology (hierarchical data centres):
        # storage nodes spread round-robin over racks; traffic between
        # racks also crosses the racks' aggregate up/down pipes, whose
        # capacity is (nodes-per-rack * link_bw) / oversubscription.
        # Clients share one dedicated, non-oversubscribed "access" rack.
        self.racks = racks
        self._rack_of: dict[int, int] = {}
        self._rack_up: dict[int, Resource] = {}
        self._rack_down: dict[int, Resource] = {}
        if racks is not None:
            per_rack = -(-num_nodes // racks)  # ceil division
            rack_bw = per_rack * link_bw / oversubscription
            for rack in range(racks):
                self._rack_up[rack] = Resource(f"rack{rack}.up", rack_bw)
                self._rack_down[rack] = Resource(f"rack{rack}.down", rack_bw)
            for node in self.storage_nodes:
                self._rack_of[node.id] = node.id % racks
            client_rack = racks
            if self.clients:
                client_bw = max(1, len(self.clients)) * link_bw
                self._rack_up[client_rack] = Resource(f"rack{client_rack}.up", client_bw)
                self._rack_down[client_rack] = Resource(
                    f"rack{client_rack}.down", client_bw
                )
                for node in self.clients:
                    self._rack_of[node.id] = client_rack
        # Active network partitions: id -> {node_id: group}. Nodes not
        # named by a partition implicitly form group 0, so a partition
        # listing only the minority side isolates it from "the rest".
        # Multiple overlapping partitions compose: two nodes are
        # reachable only if every active cut keeps them together.
        self._partitions: dict[int, dict[int, int]] = {}
        self._partition_ids = itertools.count()
        self._paths: dict[tuple[int, int, bool, bool], tuple[Resource, ...]] = {}

    # -- connectivity ---------------------------------------------------------

    @property
    def partitioned(self) -> bool:
        """True while at least one network partition is active."""
        return bool(self._partitions)

    def reachable(self, a: int, b: int) -> bool:
        """Whether traffic may currently flow between two nodes."""
        for groups in self._partitions.values():
            if groups.get(a, 0) != groups.get(b, 0):
                return False
        return True

    def apply_partition(self, groups) -> int:
        """Split the cluster: nodes in different groups cannot exchange
        traffic until :meth:`heal_partition` removes the cut.

        ``groups`` is an iterable of node-id groups; any node not listed
        joins implicit group 0. Live transfers crossing the cut are
        stalled (their in-flight slice is blackholed and re-sent after
        heal), except scrub reads, which fail (their owner paces on to
        the next chunk; a later pass reads this one), and new cross-cut
        slices are refused at launch. Returns a partition id for
        :meth:`heal_partition`.
        """
        mapping: dict[int, int] = {}
        for gid, members in enumerate(groups, start=1):
            for node_id in members:
                self.node(node_id)  # validate
                if node_id in mapping:
                    raise SimulationError(
                        f"node {node_id} appears in two partition groups"
                    )
                mapping[node_id] = gid
        if not mapping:
            raise SimulationError("a partition needs at least one named node")
        pid = next(self._partition_ids)
        self._partitions[pid] = mapping
        self.transfers.reachability = self.reachable
        for transfer in self.transfers.live_transfers():
            if (
                transfer.src is not None
                and transfer.dst is not None
                and not self.reachable(transfer.src, transfer.dst)
            ):
                if transfer.tag == SCRUB_TAG:
                    self.transfers.fail(transfer, "partitioned")
                else:
                    self.transfers.stall(transfer)
        return pid

    def heal_partition(self, partition_id: int) -> None:
        """Remove one cut; stalled transfers re-launch (and re-park if a
        different overlapping partition still separates them)."""
        if partition_id not in self._partitions:
            raise SimulationError(f"unknown partition id {partition_id}")
        del self._partitions[partition_id]
        if not self._partitions:
            self.transfers.reachability = None
        self.transfers.unstall_all()

    def node(self, node_id: int) -> Node:
        """Look up any node (storage or client) by id."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    @property
    def storage_ids(self) -> list[int]:
        """Ids of all storage nodes (alive or not)."""
        return [n.id for n in self.storage_nodes]

    def alive_storage_ids(self) -> list[int]:
        """Ids of storage nodes that have not failed."""
        return [n.id for n in self.storage_nodes if n.alive]

    def failed_node_ids(self) -> set[int]:
        """Ids of failed storage nodes."""
        return {n.id for n in self.storage_nodes if not n.alive}

    def fail_node(self, node_id: int) -> None:
        """Mark a storage node dead (its chunks become repair targets)."""
        node = self.node(node_id)
        if node.kind != "storage":
            raise SimulationError(f"cannot fail client node {node_id}")
        node.alive = False

    def transfer_resources(
        self,
        src_id: int,
        dst_id: int,
        *,
        read_disk: bool = True,
        write_disk: bool = False,
    ) -> tuple[Resource, ...]:
        """Resource path for a src -> dst movement.

        ``read_disk`` adds the source's disk-read bandwidth (set for
        transfers that serve a stored chunk; relays forwarding in-memory
        partial results skip it). ``write_disk`` adds the destination's
        disk-write bandwidth (set for the final write of a repaired
        chunk or a foreground update). Nodes, racks and their resources
        never change, so each path is built once and then reused.
        """
        key = (src_id, dst_id, read_disk, write_disk)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        src, dst = self.node(src_id), self.node(dst_id)
        path: list[Resource] = []
        if read_disk:
            path.append(src.disk_read)
        path.append(src.uplink)
        src_rack = self._rack_of.get(src_id)
        dst_rack = self._rack_of.get(dst_id)
        if src_rack is not None and src_rack != dst_rack:
            path.append(self._rack_up[src_rack])
            path.append(self._rack_down[dst_rack])
        path.append(dst.downlink)
        if write_disk:
            path.append(dst.disk_write)
        self._paths[key] = cached = tuple(path)
        return cached

    def rack_of(self, node_id: int) -> int | None:
        """The rack a node lives in (None for flat topologies)."""
        return self._rack_of.get(node_id)

    def make_transfer(
        self,
        src_id: int,
        dst_id: int,
        size: float,
        slice_size: float,
        *,
        tag: str = "default",
        read_disk: bool = True,
        write_disk: bool = False,
        name: str | None = None,
    ) -> Transfer:
        """Build (but do not start) a sliced transfer between two nodes."""
        resources = self.transfer_resources(
            src_id, dst_id, read_disk=read_disk, write_disk=write_disk
        )
        label = name or f"x{src_id}->{dst_id}"
        transfer = Transfer(label, resources, size, slice_size, tag=tag)
        transfer.src = src_id
        transfer.dst = dst_id
        return transfer

    def start(self, transfer: Transfer) -> None:
        """Release a transfer built by :meth:`make_transfer`."""
        self.transfers.start(transfer)

    def set_link_bandwidth(self, link_bw: float) -> None:
        """Throttle every node's up/downlink (the wondershaper experiments)."""
        changed = []
        for node in self.storage_nodes + self.clients:
            node.uplink.set_capacity(link_bw)
            node.downlink.set_capacity(link_bw)
            changed.append(node.uplink)
            changed.append(node.downlink)
        self.flows.capacity_changed(*changed)

    def set_disk_bandwidth(self, disk_bw: float) -> None:
        """Throttle every storage node's disk (storage-bottleneck experiments)."""
        changed = []
        for node in self.storage_nodes:
            node.disk_read.set_capacity(disk_bw)
            node.disk_write.set_capacity(disk_bw)
            changed.append(node.disk_read)
            changed.append(node.disk_write)
        self.flows.capacity_changed(*changed)
