"""Repair-algorithm interface and the classic plan structures."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId
from repro.codes.base import ErasureCode, RepairEquation
from repro.codes.rs import RSCode
from repro.errors import SchedulingError
from repro.repair.plan import PlanSource, RepairPlan


def star_parents(source_nodes: list[int], destination: int) -> dict[int, int]:
    """Conventional repair: every source uploads straight to the destination."""
    return {node: destination for node in source_nodes}


def chain_parents(source_nodes: list[int], destination: int) -> dict[int, int]:
    """ECPipe: a pipeline chain s0 -> s1 -> ... -> s_{k-1} -> destination."""
    parents = {}
    for i, node in enumerate(source_nodes):
        parents[node] = source_nodes[i + 1] if i + 1 < len(source_nodes) else destination
    return parents


def binomial_parents(source_nodes: list[int], destination: int) -> dict[int, int]:
    """PPR: binomial-tree reduction (Fig. 3(b)).

    Sources pair up each round, the first of each pair uploading its
    partial result to the second; the last survivor uploads to the
    destination. For k = 4 this is exactly the paper's example
    (N1 -> N2, N3 -> N4, N2 -> N4, N4 -> Nd).
    """
    parents: dict[int, int] = {}
    active = list(source_nodes)
    while len(active) > 1:
        next_round = []
        for i in range(0, len(active), 2):
            if i + 1 < len(active):
                parents[active[i]] = active[i + 1]
                next_round.append(active[i + 1])
            else:
                next_round.append(active[i])
        active = next_round
    parents[active[0]] = destination
    return parents


def select_equation(
    code: ErasureCode,
    failed_index: int,
    survivor_indices: set[int],
    rng: np.random.Generator,
) -> RepairEquation:
    """Pick the repair equation, randomising source choice for MDS codes.

    The paper's baselines "randomly select the k sources" (Section V-A);
    for RS codes any k survivors decode, so we sample k of them. LRC and
    Butterfly recipes are structural (local group / sub-chunk reads), so
    the code's own preferred equation is used.
    """
    if isinstance(code, RSCode) and len(survivor_indices) > code.k:
        chosen = rng.choice(sorted(survivor_indices), size=code.k, replace=False)
        return code.repair_equation(failed_index, set(int(i) for i in chosen))
    return code.repair_equation(failed_index, survivor_indices)


class RepairAlgorithm(ABC):
    """Builds one repair plan per failed chunk."""

    name = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    def make_plan(
        self,
        chunk: ChunkId,
        code: ErasureCode,
        injector: FailureInjector,
        *,
        destination: int | None = None,
    ) -> RepairPlan:
        """Select sources, a destination, and a transmission structure.

        A given ``destination`` (a degraded read's client) is pinned
        instead of drawn by :meth:`select_destination`.
        """
        survivors = injector.surviving_sources(chunk)
        if not survivors:
            raise SchedulingError(f"no survivors to repair {chunk}")
        equation = select_equation(code, chunk.index, set(survivors), self.rng)
        sources = [
            PlanSource(node_id=survivors[idx], chunk_index=idx, coefficient=coeff)
            for idx, coeff in sorted(equation.coefficients.items())
        ]
        if destination is None:
            destination = self.select_destination(chunk, injector)
        order = list(range(len(sources)))
        self.rng.shuffle(order)
        ordered_nodes = [sources[i].node_id for i in order]
        structure = self.structure(ordered_nodes, destination)
        if not code.supports_partial_combine:
            # Sub-chunk codes (Butterfly) send raw data straight to the
            # destination; no relay combining is possible.
            structure = star_parents(ordered_nodes, destination)
        return RepairPlan(
            chunk=chunk,
            destination=destination,
            sources=sources,
            parent=structure,
            read_fraction=equation.read_fraction,
        )

    def select_destination(self, chunk: ChunkId, injector: FailureInjector) -> int:
        """Random eligible destination (the baselines' policy)."""
        candidates = injector.candidate_destinations(chunk)
        if not candidates:
            raise SchedulingError(f"no destination candidates for {chunk}")
        return int(self.rng.choice(candidates))

    @abstractmethod
    def structure(self, source_nodes: list[int], destination: int) -> dict[int, int]:
        """Parent pointers implementing this algorithm's topology."""


class ConventionalRepair(RepairAlgorithm):
    """CR: read all survivors directly at the destination (Fig. 3(a))."""

    name = "CR"

    def structure(self, source_nodes: list[int], destination: int) -> dict[int, int]:
        """Star: every source feeds the destination directly."""
        return star_parents(source_nodes, destination)


class PPR(RepairAlgorithm):
    """Partial-parallel repair: binomial combining tree (Mitra et al.)."""

    name = "PPR"

    def structure(self, source_nodes: list[int], destination: int) -> dict[int, int]:
        """Binomial combining tree (Fig. 3(b))."""
        return binomial_parents(source_nodes, destination)


class ECPipe(RepairAlgorithm):
    """Repair pipelining: chained slices through every source (Li et al.)."""

    name = "ECPipe"

    def structure(self, source_nodes: list[int], destination: int) -> dict[int, int]:
        """Chain through every source (repair pipelining)."""
        return chain_parents(source_nodes, destination)
