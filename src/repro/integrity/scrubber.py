"""Background scrubbing: paced, contending, checksum-verifying scans.

A :class:`Scrubber` walks every stored chunk in deterministic order at a
configurable byte rate. Each scan issues a *real* transfer through the
simulator — the chunk's disk read, its node's uplink, and the verifier
node's downlink — so scrub traffic contends with foreground YCSB I/O
and repair flows on exactly the shared resources the paper's
interference story is about. Verification itself (recomputing the CRC)
costs zero virtual time; the *price* of scrubbing is the traffic.

Pacing is closed-loop: one scrub transfer in flight at a time, and the
next one starts no earlier than ``chunk_size / rate`` after the previous
one started. Under contention the transfer itself becomes the
bottleneck and the effective scan rate degrades gracefully — just like
a real scrubber losing its I/O budget to foreground load. Under a
network partition the verifier is picked on the source's side of every
cut, a chunk whose node has no verifier there waits for a later pass
(as a dead node's chunks do), and a scan a new cut would park fails
instead (:meth:`~repro.cluster.topology.Cluster.apply_partition`), so
the scrubber paces on to the next chunk.

A failed verification quarantines the chunk (removing it from every
planner's helper candidates), records it in the ledger and emits
``corruption_detected``. The scrubber knows no coordinator: whoever
owns repair subscribes to that event (the :class:`~repro.api.Testbed`
routes detections exactly as it routes a dead node's chunks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.events import HookEmitter
from repro.sim.resources import SCRUB_TAG
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.datastore import ChunkStore
    from repro.cluster.failures import FailureInjector
    from repro.cluster.stripes import ChunkId, StripeStore
    from repro.cluster.topology import Cluster
    from repro.integrity.ledger import IntegrityLedger


class Scrubber(HookEmitter):
    """Virtual-clock-driven background integrity scanner."""

    HOOK_EVENTS = (
        "chunk_scrubbed",
        "corruption_detected",
        "pass_complete",
    )

    def __init__(
        self,
        cluster: "Cluster",
        stripe_store: "StripeStore",
        chunk_store: "ChunkStore",
        injector: "FailureInjector",
        *,
        rate: float,
        slice_size: float | None = None,
        ledger: "IntegrityLedger | None" = None,
        passes: int | None = None,
    ) -> None:
        """``rate`` is the target scan throughput in bytes of chunk data
        per second of virtual time; ``passes`` bounds the number of full
        scans (None = scrub until :meth:`stop`).
        """
        super().__init__()
        if rate <= 0:
            raise SimulationError("scrub rate must be positive")
        if passes is not None and passes < 1:
            raise SimulationError("scrub passes must be >= 1 (or None)")
        self.cluster = cluster
        self.stripe_store = stripe_store
        self.chunk_store = chunk_store
        self.injector = injector
        self.rate = float(rate)
        self.slice_size = slice_size or stripe_store.chunk_size
        self.ledger = ledger
        self.max_passes = passes
        self.detected: list["ChunkId"] = []
        self.chunks_scanned = 0
        self.passes_completed = 0
        self._interval = stripe_store.chunk_size / self.rate
        self._queue: list["ChunkId"] = []
        self._verifier_rr = 0
        self._running = False
        self._started = False

    def set_rate(self, rate: float) -> None:
        """Retarget the scan throughput (bytes of chunk data per second).

        Recomputes the pacing interval, so the *next* scan — including
        the one queued behind the current in-flight transfer — is paced
        at the new rate. The in-flight transfer itself is untouched.
        This is the actuator the admission controller turns; it is also
        the correctness fix for anyone mutating ``rate`` directly, which
        previously left the interval frozen at its construction value.
        """
        if rate <= 0:
            raise SimulationError("scrub rate must be positive")
        self.rate = float(rate)
        self._interval = self.stripe_store.chunk_size / self.rate

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin scrubbing now (virtual time)."""
        if self._started:
            raise SimulationError("scrubber already started")
        self._started = True
        self._running = True
        self.cluster.sim.schedule(0.0, self._issue_next)

    def stop(self) -> None:
        """Stop after the in-flight scrub (idempotent)."""
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    # -- the scan loop ---------------------------------------------------------

    def _next_chunk(self) -> "tuple[ChunkId, int | None] | None":
        """Pop the next scannable chunk and its verifier, refilling on
        wrap-around."""
        while True:
            if not self._queue:
                if self.chunks_scanned:
                    self.passes_completed += 1
                    registry = get_registry()
                    if registry.enabled:
                        registry.counter("scrub.passes").inc()
                    self.emit(
                        "pass_complete", self, passes=self.passes_completed
                    )
                    if (
                        self.max_passes is not None
                        and self.passes_completed >= self.max_passes
                    ):
                        self._running = False
                        return None
                self._queue = list(self.chunk_store.chunks())
                self._queue.reverse()  # pop() from the end = scan in order
                if not self._queue:
                    return None
            chunk = self._queue.pop()
            if not self.chunk_store.has(chunk):
                continue  # lost to a crash since the pass began
            if self.injector.is_quarantined(chunk):
                continue  # already known bad; repair is in flight
            node_id = self.stripe_store.stripes[chunk.stripe].node_of(chunk.index)
            if not self.cluster.node(node_id).alive:
                continue  # unreachable; the crash path owns this chunk
            others = [n for n in self.cluster.alive_storage_ids() if n != node_id]
            if not others:
                return chunk, None
            # Only a verifier on the source's side of every cut can read it.
            candidates = [n for n in others if self.cluster.reachable(node_id, n)]
            if not candidates:
                continue  # cut off from every verifier; a later pass reads it
            verifier = candidates[self._verifier_rr % len(candidates)]
            self._verifier_rr += 1
            return chunk, verifier

    def _issue_next(self) -> None:
        if not self._running:
            return
        picked = self._next_chunk()
        if picked is None:
            if self._running:
                # Nothing scannable right now; retry one interval later.
                self.cluster.sim.schedule(self._interval, self._issue_next)
            return
        chunk, verifier = picked
        issued_at = self.cluster.sim.now
        if verifier is None:
            # Degenerate cluster: verify locally, still paced.
            self._verify(chunk)
            self._schedule_next(issued_at)
            return
        transfer = self.cluster.make_transfer(
            self.stripe_store.stripes[chunk.stripe].node_of(chunk.index),
            verifier,
            self.stripe_store.chunk_size,
            self.slice_size,
            tag=SCRUB_TAG,
            read_disk=True,
            name=f"scrub-{chunk}",
        )
        transfer.on_complete.append(
            lambda _t, c=chunk, t0=issued_at: self._scan_done(c, t0)
        )
        transfer.on_failed.append(
            lambda _t, _reason, t0=issued_at: self._schedule_next(t0)
        )
        self.cluster.start(transfer)

    def _scan_done(self, chunk: "ChunkId", issued_at: float) -> None:
        self._verify(chunk)
        self._schedule_next(issued_at)

    def _schedule_next(self, issued_at: float) -> None:
        if not self._running:
            return
        next_at = issued_at + self._interval
        delay = max(0.0, next_at - self.cluster.sim.now)
        self.cluster.sim.schedule(delay, self._issue_next)

    # -- verification ----------------------------------------------------------

    def _verify(self, chunk: "ChunkId") -> None:
        if not self.chunk_store.has(chunk):
            return  # lost to a crash while the scrub was in flight
        if self.injector.is_quarantined(chunk):
            return  # another detector beat us to it; repair is in flight
        self.chunks_scanned += 1
        sound = self.chunk_store.verify(chunk)
        registry = get_registry()
        if registry.enabled:
            registry.counter("scrub.chunks_scanned").inc()
            registry.counter("scrub.bytes_read").inc(self.stripe_store.chunk_size)
        self.emit("chunk_scrubbed", self, chunk=chunk, sound=sound)
        if sound:
            return
        self.detected.append(chunk)
        self.injector.quarantine(chunk)
        if self.ledger is not None:
            self.ledger.record_detection(chunk, "scrub")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "scrub.detection",
                track="faults",
                stripe=chunk.stripe,
                index=chunk.index,
            )
        if registry.enabled:
            registry.counter("scrub.detected").inc()
        self.emit("corruption_detected", self, chunk=chunk)
