"""Failure injection and repair-candidate queries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import ReproError, SimulationError


@dataclass
class FailureReport:
    """Outcome of failing one or more nodes."""

    failed_nodes: list[int]
    failed_chunks: list[ChunkId]


class FailureInjector:
    """Fails nodes and answers the coordinator's placement queries."""

    def __init__(self, cluster: Cluster, store: StripeStore) -> None:
        self.cluster = cluster
        self.store = store
        #: Chunks flagged as corrupt/unreadable. Quarantined chunks are
        #: excluded from :meth:`surviving_sources`, so every planner —
        #: the baselines' equation selection and ChameleonEC's candidate
        #: machinery alike — automatically re-plans around them.
        self.quarantined: set[ChunkId] = set()
        #: Optional best-effort distrust oracle (a
        #: :meth:`repro.monitor.FailureDetector.is_suspected` bound
        #: method). Unlike quarantine — ground truth about bad bytes —
        #: suspicion is a *guess* about reachability, so it only narrows
        #: the helper set when the narrowed set still yields a repair
        #: equation; otherwise the unfiltered survivors are returned and
        #: repairability is never affected.
        self.suspicion = None

    def fail_nodes(self, node_ids: list[int]) -> FailureReport:
        """Kill ``node_ids``; returns every chunk that must be repaired."""
        tolerance = self.store.code.fault_tolerance()
        already_failed = self.cluster.failed_node_ids()
        if len(already_failed | set(node_ids)) > tolerance:
            raise SimulationError(
                f"failing {node_ids} exceeds the {tolerance}-failure tolerance "
                f"of {self.store.code.name}"
            )
        chunks: list[ChunkId] = []
        for node_id in node_ids:
            self.cluster.fail_node(node_id)
            chunks.extend(self.store.chunks_on_node(node_id))
        return FailureReport(failed_nodes=list(node_ids), failed_chunks=chunks)

    def crash_node(self, node_id: int) -> FailureReport:
        """Kill one node *mid-run*, without the up-front tolerance gate.

        :meth:`fail_nodes` models the controlled start-of-experiment
        failure and refuses to exceed the code's tolerance; a runtime
        crash (injected by :class:`repro.faults.FaultTimeline`) has no
        such luxury — the node is dead whether or not the data survives.
        Callers check :meth:`is_repairable` per chunk and report a
        ``ToleranceExceeded`` outcome for the unrecoverable ones.

        Idempotent: crashing an already-dead node reports nothing.
        """
        if not self.cluster.node(node_id).alive:
            return FailureReport(failed_nodes=[], failed_chunks=[])
        self.cluster.fail_node(node_id)
        return FailureReport(
            failed_nodes=[node_id],
            failed_chunks=list(self.store.chunks_on_node(node_id)),
        )

    def is_repairable(self, chunk: ChunkId) -> bool:
        """True when the chunk's stripe still has a usable repair equation."""
        survivors = self.surviving_sources(chunk)
        try:
            self.store.code.repair_equation(chunk.index, set(survivors))
        except ReproError:
            return False
        return True

    def surviving_sources(self, chunk: ChunkId) -> dict[int, int]:
        """Surviving chunk-index -> node-id for the chunk's stripe.

        Quarantined siblings are filtered out: a chunk known to hold bad
        bytes must never serve as a repair helper, exactly as a chunk on
        a dead node cannot. This is the single choke point that makes
        *every* repair algorithm select an alternate helper set.
        """
        survivors = self.store.survivors(chunk, self.cluster.failed_node_ids())
        if self.quarantined:
            stripe = chunk.stripe
            survivors = {
                index: node_id
                for index, node_id in survivors.items()
                if ChunkId(stripe, index) not in self.quarantined
            }
        return self._filter_distrusted(chunk, survivors)

    def _filter_distrusted(
        self, chunk: ChunkId, survivors: dict[int, int]
    ) -> dict[int, int]:
        """Drop suspected helpers — but only best-effort.

        If distrusting every suspect would leave no valid repair
        equation, the unfiltered survivors are returned: a false
        suspicion must never turn a repairable chunk into a lost one.
        """
        if self.suspicion is None:
            return survivors
        trusted = {
            index: node_id
            for index, node_id in survivors.items()
            if not self.suspicion(node_id)
        }
        if trusted == survivors:
            return survivors
        try:
            self.store.code.repair_equation(chunk.index, set(trusted))
        except ReproError:
            return survivors
        return trusted

    def quarantine(self, chunk: ChunkId) -> bool:
        """Flag ``chunk`` as corrupt; True if it was newly flagged."""
        if chunk in self.quarantined:
            return False
        self.quarantined.add(chunk)
        return True

    def release(self, chunk: ChunkId) -> None:
        """Lift the quarantine (a verified repair restored the chunk)."""
        self.quarantined.discard(chunk)

    def is_quarantined(self, chunk: ChunkId) -> bool:
        return chunk in self.quarantined

    def candidate_destinations(self, chunk: ChunkId) -> list[int]:
        """Alive storage nodes that hold no chunk of this stripe.

        Repairing onto such a node keeps the stripe spread across n
        distinct nodes, preserving fault tolerance (Section III-A).
        """
        stripe_nodes = self.store.stripes[chunk.stripe].nodes()
        candidates = [
            node_id
            for node_id in self.cluster.alive_storage_ids()
            if node_id not in stripe_nodes
        ]
        if self.suspicion is None:
            return candidates
        trusted = [n for n in candidates if not self.suspicion(n)]
        # Best-effort again: with every candidate distrusted, fall back
        # to the full list rather than refuse to place the repair.
        return trusted if trusted else candidates
