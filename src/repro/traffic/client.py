"""Closed-loop trace-replaying clients."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.cluster.node import MB, Node
from repro.cluster.topology import Cluster
from repro.errors import SimulationError
from repro.events import HookEmitter
from repro.metrics.latency import LatencyRecorder
from repro.sim.resources import FOREGROUND_TAG
from repro.traffic.router import KeyRouter
from repro.traffic.traces import TraceGenerator

#: Fixed per-request software overhead (request parsing, storage engine
#: work), seconds; keeps a zero-latency closed loop from issuing
#: unrealistically many requests per second.
THINK_TIME = 0.002
#: Outstanding requests per client (YCSB worker threads).
CONCURRENCY = 4


class TraceClient(HookEmitter):
    """One YCSB-style client: issues requests back-to-back (closed loop).

    Reads move data node -> client (through the node's disk-read and
    uplink); updates move client -> node (through the node's downlink and
    disk-write). Latency per request feeds the shared recorder.

    Events (see :class:`repro.events.HookEmitter`): ``done`` fires once
    when the last request completes; ``request_done`` fires per request
    with ``latency=`` and ``size=`` keywords.
    """

    HOOK_EVENTS = ("done", "request_done")

    def __init__(
        self,
        cluster: Cluster,
        client_node: Node,
        generator: TraceGenerator,
        router: KeyRouter,
        *,
        num_requests: int | None,
        slice_size: float = 1 * MB,
        latency: LatencyRecorder | None = None,
        burst_on: float = 0.0,
        burst_off: float = 0.0,
        key_offset: int = 0,
    ) -> None:
        if num_requests is not None and num_requests < 0:
            raise SimulationError("num_requests cannot be negative")
        self.cluster = cluster
        self.client_node = client_node
        self.generator = generator
        self.router = router
        self.num_requests = num_requests
        self.slice_size = slice_size
        self.latency = latency if latency is not None else LatencyRecorder()
        # ON/OFF bursting (exponential period means, seconds): real
        # foreground traffic fluctuates over time (root cause R1); during
        # an OFF period the client issues nothing. Zero disables bursts.
        self.burst_on = burst_on
        self.burst_off = burst_off
        # Shifts this client's hot key set so concurrent clients hammer
        # different nodes (spatial skew that moves as bursts alternate).
        self.key_offset = key_offset
        self._active_slots = 0
        self._bursting = True
        self._parked_slots = 0
        self._rng = np.random.default_rng(key_offset + 17)
        self.issued = 0
        self.bytes_moved = 0.0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._stopped = False

    @property
    def done(self) -> bool:
        """True once the client issued and completed its last request."""
        return self.finished_at is not None

    @property
    def execution_time(self) -> float:
        """Wall time from start to last completed request (Exp#2 metric)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def start(self) -> None:
        """Begin issuing requests on all worker slots."""
        if self.started_at is not None:
            raise SimulationError("client already started")
        self.started_at = self.cluster.sim.now
        self._active_slots = CONCURRENCY
        if self.burst_on > 0 and self.burst_off > 0:
            self.cluster.sim.schedule(
                float(self._rng.exponential(self.burst_on)), self._end_burst
            )
        for _ in range(CONCURRENCY):
            self._issue_next()

    def _end_burst(self) -> None:
        if self.done or self._stopped:
            return
        self._bursting = False
        self.cluster.sim.schedule(
            float(self._rng.exponential(self.burst_off)), self._begin_burst
        )

    def _begin_burst(self) -> None:
        self._bursting = True
        parked, self._parked_slots = self._parked_slots, 0
        for _ in range(parked):
            self._issue_next()
        if not (self.done or self._stopped):
            self.cluster.sim.schedule(
                float(self._rng.exponential(self.burst_on)), self._end_burst
            )

    def stop(self) -> None:
        """Finish the in-flight request, then issue no more.

        Used when clients run unbounded (``num_requests=None``) to keep
        foreground traffic alive exactly as long as a repair runs.
        """
        self._stopped = True
        # Parked burst slots must still drain so the client can finish.
        parked, self._parked_slots = self._parked_slots, 0
        for _ in range(parked):
            self._issue_next()

    def _issue_next(self) -> None:
        exhausted = (
            self.num_requests is not None and self.issued >= self.num_requests
        )
        if self._stopped or exhausted:
            self._active_slots -= 1
            if self._active_slots <= 0 and self.finished_at is None:
                self.finished_at = self.cluster.sim.now
                self.emit("done", self)
            return
        if not self._bursting:
            self._parked_slots += 1
            return
        request = self.generator.next_request()
        self.issued += 1
        node_id = self.router.node_for(request.key + self.key_offset)
        client_id = self.client_node.id
        read = request.op == "read"
        src, dst = (node_id, client_id) if read else (client_id, node_id)
        self.cluster.transfers.request(
            f"fg-{'read' if read else 'upd'}-{client_id}-{self.issued}",
            src,
            dst,
            self.cluster.transfer_resources(src, dst, read_disk=read, write_disk=not read),
            request.size,
            self.slice_size,
            FOREGROUND_TAG,
            partial(self._request_done, self.cluster.sim.now, request.size),
        )

    def _request_done(self, issue_time: float, size: float) -> None:
        latency = self.cluster.sim.now - issue_time
        self.latency.record(latency)
        self.bytes_moved += size
        self.emit("request_done", self, latency=latency, size=size)
        self.cluster.sim.schedule(THINK_TIME, self._issue_next)


def launch_clients(
    cluster: Cluster,
    generator_factory: Callable[[int], TraceGenerator],
    router: KeyRouter,
    *,
    requests_per_client: int | None,
    slice_size: float = 1 * MB,
) -> tuple[list[TraceClient], LatencyRecorder]:
    """Start one closed-loop client per cluster client node.

    ``generator_factory(i)`` builds the trace generator for client ``i``
    (clients must not share one generator so their RNG streams differ).
    Returns the clients plus the shared latency recorder.
    """
    latency = LatencyRecorder("foreground")
    clients = []
    for i, node in enumerate(cluster.clients):
        client = TraceClient(
            cluster,
            node,
            generator_factory(i),
            router,
            num_requests=requests_per_client,
            slice_size=slice_size,
            latency=latency,
        )
        clients.append(client)
        client.start()
    return clients, latency
