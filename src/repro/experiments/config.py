"""Experiment configuration with the paper's defaults and a scale knob.

Full-scale values match Section V-A: 20 m5.xlarge-like nodes, 10 Gb/s
links, ~500 MB/s disks, 64 MB chunks, 1 MB slices, RS(10,4),
T_phase = 20 s, 200 chunks per full-node repair and four YCSB clients.
``scaled()`` shrinks the repair batch, enlarges slices, and bounds the
foreground so a whole experiment grid finishes in seconds-to-minutes of
wall time while keeping every bandwidth *ratio* identical — which is
what determines the result shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.node import MB, gbps, mbs
from repro.errors import ReproError


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment harness."""

    num_nodes: int = 20
    num_clients: int = 4
    link_gbps: float = 10.0
    disk_mbs: float = 500.0
    code: str = "RS(10,4)"
    chunk_mb: float = 64.0
    slice_mb: float = 1.0
    num_chunks: int = 200  # failed chunks repaired in a full-node repair
    t_phase: float = 20.0
    check_interval: float = 1.0
    straggler_threshold: float = 2.0
    trace: str = "YCSB-A"
    requests_per_client: int | None = 100_000
    concurrency: int = 8  # multi-chunk parallelism of the baselines
    # Optional hierarchical topology (None = the paper's flat testbed).
    racks: int | None = None
    oversubscription: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ReproError("need at least two storage nodes")
        if self.chunk_mb <= 0 or self.slice_mb <= 0:
            raise ReproError("chunk and slice sizes must be positive")
        if self.num_chunks < 1:
            raise ReproError("need at least one chunk to repair")
        if self.disk_mbs <= 0:
            raise ReproError("disk bandwidth must be positive")

    # -- byte-level views -------------------------------------------------------

    @property
    def link_bw(self) -> float:
        """Link bandwidth in bytes/second."""
        return gbps(self.link_gbps)

    @property
    def disk_bw(self) -> float:
        """Disk bandwidth (each of read and write) in bytes/second."""
        return mbs(self.disk_mbs)

    @property
    def chunk_size(self) -> float:
        """Chunk size in bytes."""
        return self.chunk_mb * MB

    @property
    def slice_size(self) -> float:
        """Slice size in bytes."""
        return self.slice_mb * MB

    def with_(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The exact Section V-A defaults."""
        return cls()

    @classmethod
    def scaled(cls, scale: float = 0.1, **overrides) -> "ExperimentConfig":
        """A proportionally shrunk configuration for fast runs.

        ``scale`` shrinks the repaired batch (200 -> 200*scale chunks);
        slices grow to 2 MB to halve the simulator's events; the
        foreground runs unbounded (clients stop when the repair ends),
        preserving contention for the whole measurement window.
        """
        if not 0 < scale <= 1:
            raise ReproError("scale must lie in (0, 1]")
        cfg = cls(
            num_chunks=max(6, int(round(200 * scale))),
            slice_mb=2.0,
            requests_per_client=None,
            t_phase=max(2.0, 20.0 * scale * 2),
            check_interval=0.25,
            straggler_threshold=0.5,
        )
        return cfg.with_(**overrides) if overrides else cfg
