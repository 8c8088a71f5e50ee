"""The baseline scheduling policy: greedy fill with bounded parallelism.

CR, PPR, ECPipe and their RepairBoost variants repair a batch of failed
chunks (the paper's full-node repair recovers 200 chunks) by keeping up
to ``concurrency`` chunks in flight, each planned by the wrapped
:class:`~repro.repair.base.RepairAlgorithm`. The chunk lifecycle —
launch, retries, journaling, crash teardown — is
:class:`~repro.repair.engine.RepairEngine`'s.
"""

from __future__ import annotations

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import ReproError
from repro.repair.base import RepairAlgorithm
from repro.repair.engine import RepairEngine


class RepairRunner(RepairEngine):
    """Drives a repair algorithm over a set of failed chunks.

    ``engine_options`` are :class:`~repro.repair.engine.RepairEngine`'s
    keyword arguments (``chunk_size``, ``slice_size``, ``concurrency``,
    retry, timeout and journal settings).
    """

    def __init__(
        self,
        cluster: Cluster,
        store: StripeStore,
        injector: FailureInjector,
        algorithm: RepairAlgorithm,
        **engine_options,
    ) -> None:
        super().__init__(cluster, store, injector, **engine_options)
        self.algorithm = algorithm

    def _schedule(self) -> None:
        if self._crashed:
            return
        launched = True
        while launched and len(self.in_flight) < self.concurrency:
            launched = False
            for i, chunk in enumerate(self.pending):
                if chunk.stripe in self._stripes_busy:
                    continue
                self.pending.pop(i)
                if not self.injector.is_repairable(chunk):
                    # Accumulated crashes pushed the stripe beyond the
                    # code's tolerance: write the chunk off instead of
                    # letting plan construction blow up mid-run.
                    self._mark_lost(chunk)
                    self._maybe_finish()
                else:
                    self._launch_chunk(chunk)
                launched = True
                break
        self._maybe_finish()

    def _launch_chunk(self, chunk: ChunkId) -> None:
        try:
            plan = self.algorithm.make_plan(chunk, self.store.code, self.injector)
        except ReproError:
            # No usable survivors or destinations left (a crash raced us).
            self._mark_lost(chunk)
            self._maybe_finish()
            return
        self._start(
            chunk,
            plan,
            algorithm=getattr(self.algorithm, "name", "?"),
            sources=len(plan.sources),
        )

    def _retry_ready(self, chunk: ChunkId) -> None:
        if (
            chunk.stripe in self._stripes_busy
            or len(self.in_flight) >= self.concurrency
        ):
            self.pending.insert(0, chunk)
        else:
            self._launch_chunk(chunk)
        self._maybe_finish()
