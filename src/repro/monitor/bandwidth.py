"""Periodic link/disk bandwidth monitoring (the coordinator's eyes).

The paper's coordinator learns each node's idle bandwidth "by either
periodically monitoring or pre-limiting by the system" (Section III-A).
This monitor plays the NetHogs role: every ``window`` seconds it closes
a :class:`~repro.sim.resources.ResourceWindows` over every node
resource and derives the average foreground bandwidth of the last
window; idle bandwidth is capacity minus that.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sim.engine import PeriodicHook
from repro.sim.resources import Resource, ResourceWindows, non_repair_bytes

#: Fraction of capacity always assumed available: even a saturated link
#: drains eventually, and estimates must never divide by zero.
_IDLE_FLOOR = 0.02


class BandwidthMonitor:
    """Windowed foreground-bandwidth estimates for every node resource."""

    def __init__(self, cluster: Cluster, window: float = 5.0) -> None:
        if window <= 0:
            raise SimulationError("monitor window must be positive")
        self.cluster = cluster
        self.window = window
        resources = [
            res for node in cluster.storage_nodes + cluster.clients
            for res in node.all_resources()
        ]
        self._windows = ResourceWindows(resources)
        self._foreground_bw = {res.name: 0.0 for res in resources}
        self._last_sample_time = cluster.sim.now
        self._hook: PeriodicHook | None = None

    def start(self) -> None:
        """Begin periodic sampling (a second call is a no-op)."""
        if self._hook is None:
            self._hook = self.cluster.sim.every(self.window, self.sample)

    def sample(self) -> None:
        """Close the current window and refresh all estimates.

        May also be called on demand (e.g. before re-planning around a
        straggler); the divisor is the actual elapsed time, so irregular
        sampling never skews the estimates.
        """
        elapsed = self.cluster.sim.now - self._last_sample_time
        if elapsed <= 0:
            return
        self._last_sample_time = self.cluster.sim.now
        self.cluster.flows.settle_now()
        tracer = get_tracer()
        registry = get_registry()
        for res, before, now in self._windows.close():
            bw = (non_repair_bytes(now) - non_repair_bytes(before)) / elapsed
            self._foreground_bw[res.name] = bw
            if tracer.enabled:
                # One counter series per resource track: the viewer plots
                # each uplink/downlink/disk's foreground bandwidth over time.
                tracer.counter("bw.foreground", bw, track=res.name)
        if tracer.enabled:
            tracer.instant(
                "monitor.sampled", track="monitor", elapsed=elapsed,
                resources=len(self._foreground_bw),
            )
        if registry.enabled:
            registry.counter("monitor.samples").inc()
            histogram = registry.histogram("monitor.foreground_bw")
            for bw in self._foreground_bw.values():
                histogram.observe(bw)

    def foreground_bw(self, res: Resource) -> float:
        """Average foreground bandwidth of the last window (bytes/s)."""
        return self._foreground_bw.get(res.name, 0.0)

    def idle_bw(self, res: Resource) -> float:
        """Estimated unoccupied bandwidth of ``res`` (never below a floor)."""
        idle = res.capacity - self.foreground_bw(res)
        return max(idle, _IDLE_FLOOR * res.capacity)
