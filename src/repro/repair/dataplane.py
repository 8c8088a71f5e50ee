"""Couples the timing simulation to real chunk payloads.

Attach a :class:`DataPlane` to any repair driver (a
:class:`~repro.repair.runner.RepairRunner` or a
:class:`~repro.core.chameleon.ChameleonRepair`): whenever the simulator
reports a chunk repaired, the *final* plan — including any straggler
re-tuning applied mid-flight — is executed over the stored payloads and
the reconstructed bytes are written back. ``verify()`` then asserts
every repaired chunk equals the original encoding.

Verified repair (Section III-C's re-planning, aimed at bit-rot): before
decoding, every helper payload is checksum-verified; after decoding, the
reconstructed chunk is checked against the chunk's recorded checksum.
Either failure rejects the write-back — feeding garbage into a decode,
or persisting a garbage decode, would *spread* corruption. The corrupted
helper (and the still-unwritten target) are quarantined, which removes
them from every planner's candidate helpers, and both are re-queued
through ``add_chunks()`` to the driver that ran the plan (not re-routed:
that driver already owns the stripe) — so the next attempt re-plans
with an alternate helper set through the ordinary candidate machinery.
A helper whose payload is gone (its node died after the read) is
quarantined and re-queued the same way, but it is a loss, not a
detection, so the ledger does not count it as corruption.

This mirrors the prototype's proxies computing partial decodes and the
destination persisting the chunk, and it is the strongest end-to-end
check the reproduction offers: *scheduling never corrupts data*.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.datastore import ChunkStore
from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.codes.butterfly import ButterflyCode
from repro.errors import PlanError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.repair.executor import execute_plan
from repro.repair.plan import RepairPlan

#: Rejected write-backs of one chunk before it is abandoned.
MAX_INTEGRITY_RETRIES = 3


def decode_from_store(
    chunk_store: ChunkStore, code, chunk: ChunkId, plan: RepairPlan
) -> np.ndarray:
    """Decode ``chunk`` from stored helper payloads along ``plan``.

    Shared by repair write-backs and degraded reads; the caller is
    responsible for verifying helpers first (garbage in, garbage out).
    """
    helpers = {}
    for source in plan.sources:
        source_chunk = ChunkId(chunk.stripe, source.chunk_index)
        helpers[source.chunk_index] = chunk_store.get(source_chunk)
    if isinstance(code, ButterflyCode):
        if set(code.repair_reads(chunk.index)) <= set(helpers):
            return code.repair_chunk(chunk.index, helpers)
        # Degraded path: whole-chunk decode from any two helpers.
        decoded = code.decode(helpers)
        return decoded[chunk.index]
    return execute_plan(plan, helpers)


def unsound_helpers(
    chunk_store: ChunkStore, chunk: ChunkId, plan: RepairPlan
) -> tuple[list[ChunkId], list[ChunkId]]:
    """``plan``'s helpers that fail verification, and of those the corrupt
    ones: a helper whose payload is gone (its node died after its upload
    landed) fails too, but it is a loss, not a detection."""
    bad = chunk_store.unsound(ChunkId(chunk.stripe, s.chunk_index) for s in plan.sources)
    return bad, [helper for helper in bad if chunk_store.has(helper)]


class DataPlane:
    """Executes completed repair plans over stored payloads."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        stripe_store: StripeStore,
        injector: FailureInjector | None = None,
        *,
        ledger=None,
    ) -> None:
        self.chunk_store = chunk_store
        self.stripe_store = stripe_store
        self.injector = injector
        self.ledger = ledger
        self.repaired: list[ChunkId] = []
        self.mismatches: list[ChunkId] = []
        #: (chunk, reason) for every rejected write-back, in order.
        self.rejected: list[tuple[ChunkId, str]] = []
        #: Chunks abandoned after ``MAX_INTEGRITY_RETRIES`` rejections.
        self.unrepairable: list[ChunkId] = []
        self._retries: dict[ChunkId, int] = {}

    def attach(self, repairer) -> None:
        """Subscribe to a repair driver's completion events.

        The driver reference is kept per subscription so rejected
        write-backs can re-queue work into the *same* driver.
        """
        repairer.on(
            "chunk_repaired",
            lambda r, chunk, plan: self.handle_repaired(chunk, plan, repairer=r),
        )

    def handle_repaired(
        self, chunk: ChunkId, plan: RepairPlan, repairer=None
    ) -> None:
        """Execute the finished plan over stored payloads and write back.

        Write-back only happens when every helper payload and the decode
        output pass checksum verification; otherwise the repair is
        rejected and (given a ``repairer``) re-queued around the
        quarantined helpers.
        """
        bad_helpers, corrupt = unsound_helpers(self.chunk_store, chunk, plan)
        if bad_helpers:
            self._reject(chunk, bad_helpers, corrupt, repairer, reason="corrupt_helper")
            return
        payload = decode_from_store(
            self.chunk_store, self.stripe_store.code, chunk, plan
        )
        if not self.chunk_store.matches_checksum(chunk, payload):
            self._reject(chunk, [], [], repairer, reason="bad_decode")
            return
        self.chunk_store.put(chunk, payload)
        self._retries.pop(chunk, None)
        if self.injector is not None:
            self.injector.release(chunk)
        if self.ledger is not None:
            self.ledger.record_restoration(chunk)
        self.repaired.append(chunk)
        if not np.array_equal(payload, self.chunk_store.truth(chunk)):
            self.mismatches.append(chunk)

    def _reject(
        self,
        chunk: ChunkId,
        bad_helpers: list[ChunkId],
        corrupt: list[ChunkId],
        repairer,
        *,
        reason: str,
    ) -> None:
        """A write-back failed verification: quarantine, report the corrupt
        helpers to the ledger, and re-queue."""
        self.rejected.append((chunk, reason))
        if self.injector is not None:
            for helper in bad_helpers:
                self.injector.quarantine(helper)
            # The target was already relocated in metadata but holds no
            # trustworthy payload — it must not serve as a helper either,
            # until a verified write-back releases it.
            self.injector.quarantine(chunk)
        if self.ledger is not None:
            for helper in corrupt:
                self.ledger.record_detection(helper, "repair")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "repair.integrity.reject",
                track="repair",
                chunk=str(chunk),
                reason=reason,
                bad_helpers=[str(c) for c in bad_helpers],
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("repair.integrity.rejected").inc()
            registry.counter(f"repair.integrity.{reason}").inc()
            registry.counter("repair.integrity.helpers_quarantined").inc(
                len(bad_helpers)
            )
        retries = self._retries.get(chunk, 0) + 1
        self._retries[chunk] = retries
        if repairer is None:
            return
        if retries > MAX_INTEGRITY_RETRIES:
            self.unrepairable.append(chunk)
            if registry.enabled:
                registry.counter("repair.integrity.exhausted").inc()
            return
        if registry.enabled:
            registry.counter("repair.integrity.requeued").inc(len(bad_helpers) + 1)
        # Corrupted helpers first: stripe serialization then rebuilds the
        # helper before the target's relaunch, so the retry sees a clean
        # helper set (or a different one entirely, via quarantine).
        repairer.add_chunks(bad_helpers + [chunk])

    def verify(self, *, deep: bool = False) -> None:
        """Raise if any repaired payload deviates from the ground truth.

        ``deep=True`` additionally checksum-scans every stored chunk —
        the end-of-run audit that catches corruption nothing detected.
        """
        if self.mismatches:
            raise PlanError(
                f"{len(self.mismatches)} repaired chunk(s) corrupt: "
                f"{self.mismatches[:5]}"
            )
        if deep:
            unsound = self.chunk_store.unsound()
            if unsound:
                raise PlanError(
                    f"{len(unsound)} stored chunk(s) fail checksum "
                    f"verification: {unsound[:5]}"
                )

    @property
    def all_verified(self) -> bool:
        """True when every repaired chunk matched the ground truth."""
        return not self.mismatches and bool(self.repaired)
