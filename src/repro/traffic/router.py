"""Key-to-node routing for foreground requests."""

from __future__ import annotations

from repro.cluster.stripes import StripeStore
from repro.cluster.topology import Cluster
from repro.errors import SimulationError


class KeyRouter:
    """Maps request keys onto the storage node holding their data chunk.

    Keys hash deterministically onto (stripe, data-chunk) pairs, so the
    foreground load distribution follows the stripe placement, exactly as
    when YCSB rows live in erasure-coded chunks. If the owning node is
    dead, the request is served by another survivor of the same stripe
    (degraded service; the dedicated degraded-read path is measured
    separately in Exp#10).
    """

    def __init__(self, store: StripeStore, cluster: Cluster) -> None:
        if not store.stripes:
            raise SimulationError("router needs at least one stripe")
        self.store = store
        self.cluster = cluster
        # Sorted stripe ids, re-sorted when the store grew (stripes are
        # only ever added, by ``StripeStore.add``).
        self._stripe_ids: list[int] = []

    def locate(self, key: int) -> tuple[int, int]:
        """(stripe_id, chunk_index) that owns ``key``."""
        stripe_ids = self._stripe_ids
        if len(stripe_ids) != len(self.store.stripes):
            stripe_ids = self._stripe_ids = sorted(self.store.stripes)
        stripe_id = stripe_ids[key % len(stripe_ids)]
        chunk_index = (key // len(stripe_ids)) % self.store.code.k
        return stripe_id, chunk_index

    def node_for(self, key: int) -> int:
        """The alive node that serves requests for ``key``."""
        stripe_id, chunk_index = self.locate(key)
        chunk_nodes = self.store.stripes[stripe_id].chunk_nodes
        node = self.cluster.node
        owner = chunk_nodes[chunk_index]
        if node(owner).alive:
            return owner
        for node_id in chunk_nodes:
            if node(node_id).alive:
                return node_id
        raise SimulationError(f"no alive replica for key {key}")
