"""RepairBoost (Lin et al., ATC'21) — simplified traffic balancer.

RepairBoost is a framework that boosts full-node repair for an existing
repair algorithm by balancing the repair traffic across nodes and
scheduling transmissions to saturate bandwidth. This reproduction keeps
its defining property relative to ChameleonEC: balancing is *static*
(task counts), not idle-bandwidth-aware, and the inner algorithm keeps
its fixed plan structure (star/tree/chain). Concretely:

* destinations are the eligible nodes with the fewest assigned download
  tasks (instead of random);
* for MDS codes, the k sources are the survivors with the fewest
  assigned upload tasks (instead of random);
* relay/download load implied by the inner structure is tracked so later
  chunks steer around already-loaded nodes.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId
from repro.codes.base import ErasureCode
from repro.codes.rs import RSCode
from repro.errors import SchedulingError
from repro.repair.base import RepairAlgorithm, star_parents
from repro.repair.plan import PlanSource, RepairPlan


class RepairBoost(RepairAlgorithm):
    """Traffic-balancing wrapper around a base repair algorithm."""

    def __init__(self, inner: RepairAlgorithm, seed: int = 0) -> None:
        super().__init__(seed)
        self.inner = inner
        self.name = f"RB+{inner.name}"
        self.upload_load: Counter = Counter()
        self.download_load: Counter = Counter()

    def structure(self, source_nodes: list[int], destination: int) -> dict[int, int]:
        """Delegate the transmission topology to the wrapped algorithm."""
        return self.inner.structure(source_nodes, destination)

    def make_plan(
        self,
        chunk: ChunkId,
        code: ErasureCode,
        injector: FailureInjector,
        *,
        destination: int | None = None,
    ) -> RepairPlan:
        """Balanced source/destination selection + the inner structure."""
        survivors = injector.surviving_sources(chunk)
        if not survivors:
            raise SchedulingError(f"no survivors to repair {chunk}")

        if isinstance(code, RSCode) and len(survivors) > code.k:
            # Balanced source selection: least-loaded uploaders first.
            by_load = sorted(
                survivors, key=lambda idx: (self.upload_load[survivors[idx]], idx)
            )
            chosen = set(by_load[: code.k])
            equation = code.repair_equation(chunk.index, chosen)
        else:
            equation = code.repair_equation(chunk.index, set(survivors))

        sources = [
            PlanSource(node_id=survivors[idx], chunk_index=idx, coefficient=coeff)
            for idx, coeff in sorted(equation.coefficients.items())
        ]

        if destination is None:
            candidates = injector.candidate_destinations(chunk)
            if not candidates:
                raise SchedulingError(f"no destination candidates for {chunk}")
            destination = min(candidates, key=lambda n: (self.download_load[n], n))

        # Least-loaded sources sit deepest in the structure (they relay).
        ordered = sorted(
            (s.node_id for s in sources),
            key=lambda n: (self.download_load[n], n),
            reverse=True,
        )
        structure = self.inner.structure(ordered, destination)
        if not code.supports_partial_combine:
            structure = star_parents(ordered, destination)

        for uploader, downloader in structure.items():
            self.upload_load[uploader] += 1
            self.download_load[downloader] += 1

        return RepairPlan(
            chunk=chunk,
            destination=destination,
            sources=sources,
            parent=structure,
            read_fraction=equation.read_fraction,
        )
