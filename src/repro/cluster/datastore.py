"""In-memory chunk payload storage (the prototype's Redis role).

The simulator moves byte *counts*; this store holds actual chunk
*contents* so repairs can be verified end to end. Payload size is
decoupled from the simulated chunk size (timing uses ``chunk_size``,
contents use a small ``payload_size``) — the math is identical and tests
stay fast.

Integrity metadata: every stored payload carries a CRC-32 recorded when
the bytes were *legitimately* written (:meth:`ChunkStore.put`).
:meth:`ChunkStore.corrupt` and :meth:`ChunkStore.mark_unreadable` mutate
stored state *without* touching that checksum — exactly how bit-rot and
latent sector errors behave — so :meth:`ChunkStore.verify` is the one
honest detector: it recomputes the CRC on read, the way real systems do
on every block read and scrub pass.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.cluster.stripes import ChunkId, StripeStore
from repro.errors import SimulationError
from repro.integrity.checksum import payload_checksum


class ChunkStore:
    """Payloads for every chunk of every stripe, plus the ground truth."""

    def __init__(self) -> None:
        self._payloads: dict[ChunkId, np.ndarray] = {}
        self._truth: dict[ChunkId, np.ndarray] = {}
        #: Expected CRC-32 per chunk, recorded at legitimate write time
        #: and *retained* across drops: a repaired chunk must reproduce
        #: the original bytes, so the original checksum stays the oracle.
        self._checksums: dict[ChunkId, int] = {}
        self._unreadable: set[ChunkId] = set()

    def put(self, chunk: ChunkId, payload: np.ndarray, *, truth: bool = False) -> None:
        """Store a payload; ``truth=True`` also records it as ground truth.

        The payload is defensively copied (and coerced to ``uint8``): the
        caller's buffer must never alias stored bytes, or later in-place
        mutation (e.g. injected corruption of another chunk sharing the
        buffer) would silently rewrite "stored" data.
        """
        data = np.array(payload, dtype=np.uint8, copy=True)
        self._payloads[chunk] = data
        self._unreadable.discard(chunk)
        if truth or chunk not in self._checksums:
            self._checksums[chunk] = payload_checksum(data)
        if truth:
            self._truth[chunk] = data.copy()

    def get(self, chunk: ChunkId) -> np.ndarray:
        """The stored payload of ``chunk`` (raises if lost/missing).

        Reads return whatever bytes the store holds — corrupted or not:
        a silent corruption is silent precisely because the read
        succeeds. Call :meth:`verify` to checksum-check a read.
        """
        try:
            return self._payloads[chunk]
        except KeyError:
            raise SimulationError(f"no payload stored for {chunk}") from None

    def has(self, chunk: ChunkId) -> bool:
        """True if a payload is currently stored for ``chunk``."""
        return chunk in self._payloads

    def drop(self, chunk: ChunkId) -> None:
        """Lose a chunk's contents (its node died)."""
        self._payloads.pop(chunk, None)
        self._unreadable.discard(chunk)

    def chunks(self) -> Iterator[ChunkId]:
        """Every chunk with a stored payload, in deterministic order."""
        return iter(sorted(self._payloads, key=lambda c: (c.stripe, c.index)))

    def truth(self, chunk: ChunkId) -> np.ndarray:
        """The originally encoded bytes of ``chunk``."""
        try:
            return self._truth[chunk]
        except KeyError:
            raise SimulationError(f"no ground truth recorded for {chunk}") from None

    def matches_truth(self, chunk: ChunkId) -> bool:
        """True when the stored payload equals the original encoding."""
        return self.has(chunk) and np.array_equal(self.get(chunk), self.truth(chunk))

    # -- integrity metadata ----------------------------------------------------

    def checksum(self, chunk: ChunkId) -> int | None:
        """The expected CRC-32 of ``chunk`` (None if never stored)."""
        return self._checksums.get(chunk)

    def matches_checksum(self, chunk: ChunkId, payload: np.ndarray) -> bool:
        """True when ``payload`` matches the chunk's recorded checksum.

        Vacuously true when no checksum was ever recorded (a store
        predating the chunk) — absence of metadata cannot condemn data.
        """
        expected = self._checksums.get(chunk)
        return expected is None or payload_checksum(payload) == expected

    def verify(self, chunk: ChunkId) -> bool:
        """Checksum-verified read: True iff the stored bytes are sound.

        False when the payload is missing, the chunk's sectors are
        unreadable, or the recomputed CRC deviates from the recorded one.
        """
        if chunk not in self._payloads or chunk in self._unreadable:
            return False
        return self.matches_checksum(chunk, self._payloads[chunk])

    def unsound(self, chunks: Iterable[ChunkId] | None = None) -> list[ChunkId]:
        """The chunks that fail :meth:`verify`, in the order given.

        ``chunks`` defaults to every stored chunk; pass a batch to also
        count the ones whose payload was dropped and never restored.
        """
        candidates = self.chunks() if chunks is None else chunks
        return [chunk for chunk in candidates if not self.verify(chunk)]

    # -- fault injection surface -----------------------------------------------

    def corrupt(
        self, chunk: ChunkId, *, rng: np.random.Generator, flips: int = 1
    ) -> list[int]:
        """Silently flip ``flips`` random bytes of the stored payload.

        The recorded checksum is deliberately left untouched — the whole
        point of silent corruption is that no metadata changes. Returns
        the flipped byte positions. Each flip XORs a non-zero byte, so a
        flip can never be a no-op.
        """
        data = self.get(chunk)
        count = min(int(flips), len(data))
        if count < 1:
            raise SimulationError("corruption must flip at least one byte")
        positions = rng.choice(len(data), size=count, replace=False)
        for position in positions:
            data[int(position)] ^= np.uint8(rng.integers(1, 256))
        return [int(p) for p in sorted(positions)]

    def mark_unreadable(self, chunk: ChunkId) -> None:
        """A latent sector error: the chunk's sectors no longer read back."""
        if chunk not in self._payloads:
            raise SimulationError(f"no payload stored for {chunk}")
        self._unreadable.add(chunk)

    def is_unreadable(self, chunk: ChunkId) -> bool:
        """True when a latent sector error pinned this chunk."""
        return chunk in self._unreadable

    def __len__(self) -> int:
        return len(self._payloads)


def encode_and_load(
    stripe_store: StripeStore, *, payload_size: int = 256, seed: int = 0
) -> ChunkStore:
    """Generate random data, encode every stripe, and load the store."""
    if payload_size < 2 or payload_size % 2 != 0:
        raise SimulationError("payload_size must be an even integer >= 2")
    rng = np.random.default_rng(seed)
    code = stripe_store.code
    chunk_store = ChunkStore()
    for stripe_id in stripe_store.stripes:
        data = [
            rng.integers(0, 256, payload_size, dtype=np.uint8)
            for _ in range(code.k)
        ]
        encoded = code.encode(data)
        for index, payload in enumerate(encoded):
            chunk_store.put(ChunkId(stripe_id, index), payload, truth=True)
    return chunk_store


def drop_node_chunks(
    chunk_store: ChunkStore, stripe_store: StripeStore, node_id: int
) -> list[ChunkId]:
    """Simulate data loss: drop every payload stored on ``node_id``."""
    lost = stripe_store.chunks_on_node(node_id)
    for chunk in lost:
        chunk_store.drop(chunk)
    return lost
