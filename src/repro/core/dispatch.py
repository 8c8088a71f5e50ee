"""Repair task dispatch (Section III-A).

For each failed chunk the dispatcher decomposes the repair into ``k``
upload and ``k`` download tasks and places them on nodes so the phase's
estimated completion time is minimised, using the idle bandwidth the
monitor reports:

1. *Destination* — minimum-time-first among nodes holding no chunk of
   the stripe: the smallest ``(T_down + 1) |C| / B_down``. The
   destination always receives the first download task.
2. *Remaining k-1 downloads* — greedily to the node (destination or any
   candidate source) whose estimated repair time after the assignment is
   smallest. Giving a source its *first* download also creates the
   associated upload of its partially decoded chunk; further downloads
   merge into that combine and add no upload (the relay-merging rule).
3. *Remaining uploads* — minimum-time-first over candidate sources that
   got no download, at most one each.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId
from repro.codes.base import ErasureCode
from repro.errors import SchedulingError
from repro.monitor.bandwidth import BandwidthMonitor
from repro.obs.tracer import get_tracer
from repro.core.candidates import repair_candidates
from repro.core.tasks import ChunkDispatch, PhaseLoad


class TaskDispatcher:
    """Phase-scoped assignment of repair tasks to nodes."""

    def __init__(
        self,
        injector: FailureInjector,
        monitor: BandwidthMonitor,
        *,
        chunk_size: float,
        io_aware: bool = False,
        max_relay_fraction: float = 0.5,
    ) -> None:
        self.injector = injector
        self.monitor = monitor
        self.cluster = injector.cluster
        self.chunk_size = chunk_size
        self.io_aware = io_aware
        # At most this fraction of a chunk's sources may become relays.
        # The per-node time estimates ignore transmission dependencies, so
        # unbounded relaying degenerates into an ECPipe-style chain (every
        # fresh source looks "free"); bounding new relays reproduces the
        # bushy trees of the paper's Fig. 8 example (k = 4, two relays).
        if not 0 <= max_relay_fraction <= 1:
            raise SchedulingError("max_relay_fraction must lie in [0, 1]")
        self.max_relay_fraction = max_relay_fraction
        self.load = PhaseLoad()

    def begin_phase(self) -> None:
        """Forget task assignments of the previous phase."""
        self.load.reset()

    # -- bandwidth views -------------------------------------------------------

    def _bw_up(self, node_id: int) -> float:
        node = self.cluster.node(node_id)
        if self.io_aware:
            return self.monitor.idle_bw(node.disk_read)
        return self.monitor.idle_bw(node.uplink)

    def _bw_down(self, node_id: int) -> float:
        node = self.cluster.node(node_id)
        if self.io_aware:
            return self.monitor.idle_bw(node.disk_write)
        return self.monitor.idle_bw(node.downlink)

    def _node_time(self, node_id: int, up: int, down: int) -> float:
        """max(upload time, download time) for the given task counts."""
        size = self.chunk_size
        return max(up * size / self._bw_up(node_id), down * size / self._bw_down(node_id))

    # -- dispatch ---------------------------------------------------------------

    def select_destination(self, chunk: ChunkId) -> int:
        """Minimum-time-first destination selection."""
        candidates = self.injector.candidate_destinations(chunk)
        if not candidates:
            raise SchedulingError(f"no destination candidates for {chunk}")
        scores = {
            d: (self.load.down[d] + 1) * self.chunk_size / self._bw_down(d)
            for d in candidates
        }
        chosen = min(candidates, key=lambda d: (scores[d], d))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "dispatch.destination",
                track="scheduler",
                chunk=str(chunk),
                chosen=chosen,
                scores={str(d): scores[d] for d in sorted(scores)},
            )
        return chosen

    def dispatch_chunk(
        self,
        chunk: ChunkId,
        code: ErasureCode,
        destination: int | None = None,
    ) -> ChunkDispatch:
        """Assign the chunk's 2k repair tasks; updates the phase load.

        ``destination`` pins the repaired chunk's landing node — degraded
        reads deliver straight to the requesting client instead of a
        storage node chosen by minimum-time-first.
        """
        survivors = self.injector.surviving_sources(chunk)
        candidates, required = repair_candidates(code, chunk.index, survivors)
        node_to_index = {node: idx for idx, node in candidates.items()}
        candidate_nodes = sorted(node_to_index)

        if destination is None:
            destination = self.select_destination(chunk)
        self.load.down[destination] += 1
        dest_downloads = 1

        allow_relays = code.supports_partial_combine
        max_relays = int(required * self.max_relay_fraction)
        chunk_downloads: Counter = Counter()  # per-source, this chunk only

        for _ in range(required - 1):
            best_node, best_time = None, None
            # Option 1: another download at the destination.
            t = self._node_time(
                destination, self.load.up[destination], self.load.down[destination] + 1
            )
            best_node, best_time = destination, t
            if allow_relays:
                for node in candidate_nodes:
                    if chunk_downloads[node] == 0:
                        if len(chunk_downloads) >= max_relays:
                            continue  # relay budget for this chunk is spent
                        # First download => associated combine-upload appears.
                        t = self._node_time(
                            node, self.load.up[node] + 1, self.load.down[node] + 1
                        )
                    else:
                        t = self._node_time(
                            node, self.load.up[node], self.load.down[node] + 1
                        )
                    if t < best_time - 1e-12:
                        best_node, best_time = node, t
            if best_node == destination:
                self.load.down[destination] += 1
                dest_downloads += 1
            else:
                if chunk_downloads[best_node] == 0:
                    self.load.up[best_node] += 1
                self.load.down[best_node] += 1
                chunk_downloads[best_node] += 1

        relays = sorted(chunk_downloads)
        # Remaining uploads: sources with no download task, min-time-first.
        needed_uploads = required - len(relays)
        plain_pool = [n for n in candidate_nodes if n not in chunk_downloads]
        if len(plain_pool) < needed_uploads:
            raise SchedulingError(
                f"not enough candidate sources for {chunk}: "
                f"{len(plain_pool)} available, {needed_uploads} required"
            )
        plain_pool.sort(
            key=lambda n: (
                (self.load.up[n] + 1) * self.chunk_size / self._bw_up(n),
                n,
            )
        )
        uploaders = plain_pool[:needed_uploads]
        for node in uploaders:
            self.load.up[node] += 1

        participants = relays + uploaders
        chunk_indices = {node: node_to_index[node] for node in participants}
        estimated = max(
            [self._node_time(destination, self.load.up[destination], self.load.down[destination])]
            + [self._node_time(n, self.load.up[n], self.load.down[n]) for n in participants]
        )

        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "dispatch.chunk",
                track="scheduler",
                chunk=str(chunk),
                destination=destination,
                relays=relays,
                uploaders=uploaders,
                estimated_time=estimated,
            )
        return ChunkDispatch(
            chunk=chunk,
            destination=destination,
            participants=participants,
            chunk_indices=chunk_indices,
            source_downloads=dict(chunk_downloads),
            dest_downloads=dest_downloads,
            estimated_time=estimated,
        )
