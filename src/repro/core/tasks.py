"""Task bookkeeping for ChameleonEC's phase-based dispatch."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cluster.stripes import ChunkId


class PhaseLoad:
    """Per-phase, per-node counters of assigned upload/download tasks.

    These are the ``T_up^i`` / ``T_down^i`` of Section III-A; they
    accumulate across all chunks admitted into the current phase so that
    later chunks steer around already-loaded nodes.
    """

    def __init__(self) -> None:
        self.up: Counter = Counter()
        self.down: Counter = Counter()

    def reset(self) -> None:
        """Clear all per-node task counters (a new phase begins)."""
        self.up.clear()
        self.down.clear()

    def snapshot(self) -> tuple[Counter, Counter]:
        """A copy of (up, down) counters for admission rollback."""
        return Counter(self.up), Counter(self.down)

    def restore(self, snap: tuple[Counter, Counter]) -> None:
        """Roll the counters back to a prior :meth:`snapshot`."""
        self.up, self.down = Counter(snap[0]), Counter(snap[1])


@dataclass
class ChunkDispatch:
    """Outcome of dispatching one chunk's 2k repair tasks (Section III-A).

    ``source_downloads`` maps each participating *source* node to the
    number of download tasks it received (relays have >= 1); nodes with
    zero downloads upload their raw chunk. ``dest_downloads`` is the
    destination's download-task count. ``chunk_indices`` maps each
    participating node to the stripe chunk index it serves.
    """

    chunk: ChunkId
    destination: int
    participants: list[int]
    chunk_indices: dict[int, int]
    source_downloads: dict[int, int] = field(default_factory=dict)
    dest_downloads: int = 1
    estimated_time: float = 0.0

    @property
    def relays(self) -> list[int]:
        """Source nodes that download (and hence combine) chunks."""
        return sorted(n for n, d in self.source_downloads.items() if d > 0)

    @property
    def total_downloads(self) -> int:
        """All download tasks of this chunk (sources + destination)."""
        return sum(self.source_downloads.values()) + self.dest_downloads

    @property
    def total_uploads(self) -> int:
        """All upload tasks (exactly one per participating source)."""
        return len(self.participants)
