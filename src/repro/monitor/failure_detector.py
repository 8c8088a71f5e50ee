"""Accrual failure detection over simulated heartbeats.

Timeout-only failure handling makes a partitioned helper cost a full
``chunk_timeout`` per retry — the dominant repair-tail term under
network partitions (see PAPERS.md: repair pipelining treats straggling
or unreachable helpers as the tail driver). The
:class:`FailureDetector` closes that gap with an accrual detector in
the phi-detector family: every monitored node emits a heartbeat each
``heartbeat_interval`` of virtual time toward an observer ("home")
node — the first client, or storage node 0 without clients — over the
same partitionable links all data flows use. A heartbeat is delivered
only when the sender is alive, currently reachable from home, and its
uplink is not throttled below ``MIN_HEARTBEAT_CAPACITY`` of its base
capacity — so crashes, partitions, and deep stragglers all starve the
heartbeat stream.

Suspicion accrues instead of toggling: the detector keeps the last
``WINDOW`` observed inter-arrival times per node and computes

    phi(node) = (now - last_arrival) / mean(window)

A node is *suspected* when phi crosses ``THRESHOLD`` (i.e. roughly that
many expected heartbeats have gone missing) and *restored* the moment a
heartbeat arrives again. Because this is a simulation, each suspicion
is also classified against ground truth at fire time: a suspect that
is actually alive and reachable (a straggler whose heartbeats were
throttled away) counts toward
``monitor.false_suspicions`` — the detector's precision is itself a
measured quantity.

Consumers: :meth:`repro.cluster.failures.FailureInjector` accepts the
detector's :meth:`is_suspected` as a best-effort planning filter, and
the repair drivers fail in-flight instances touching a fresh suspect
(``helper_suspected``) so re-planning happens *before* the chunk
timeout fires.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.topology import Cluster
from repro.errors import SimulationError
from repro.events import HookEmitter
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

#: Accrual level (missed expected heartbeats) at which a node is suspected.
THRESHOLD = 3.0
#: Inter-arrival times kept per node for the mean.
WINDOW = 8
#: Uplink fraction of base capacity below which heartbeats are starved.
MIN_HEARTBEAT_CAPACITY = 0.05


class FailureDetector(HookEmitter):
    """Virtual-time accrual (phi) detector fed by simulated heartbeats."""

    HOOK_EVENTS = ("suspect", "restore")

    def __init__(
        self,
        cluster: Cluster,
        *,
        heartbeat_interval: float = 0.5,
    ) -> None:
        if heartbeat_interval <= 0:
            raise SimulationError("heartbeat interval must be positive")
        self.cluster = cluster
        self.heartbeat_interval = float(heartbeat_interval)
        self.home = (
            cluster.clients[0].id if cluster.clients else cluster.storage_nodes[0].id
        )
        #: node id -> virtual time its suspicion started (insertion order
        #: is suspicion order, keeping consumers deterministic).
        self.suspected: dict[int, float] = {}
        #: every (at, node_id, false_positive) suspicion ever raised.
        self.suspicions: list[tuple[float, int, bool]] = []
        self.false_suspicions = 0
        self.started = False
        self._last_arrival: dict[int, float] = {}
        self._intervals: dict[int, deque[float]] = {}
        self._base_uplink: dict[int, float] = {}
        self._stopped = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FailureDetector":
        """Begin observing heartbeats from every storage node."""
        if self.started:
            raise SimulationError("failure detector already started")
        self.started = True
        now = self.cluster.sim.now
        for node in self.cluster.storage_nodes:
            if node.id == self.home:
                continue
            self._last_arrival[node.id] = now
            self._intervals[node.id] = deque(maxlen=WINDOW)
            self._base_uplink[node.id] = node.uplink.capacity
        self.cluster.sim.schedule(self.heartbeat_interval, self._tick)
        return self

    def stop(self) -> None:
        """Stop observing (pending ticks become no-ops)."""
        self._stopped = True

    # -- queries --------------------------------------------------------------

    def is_suspected(self, node_id: int) -> bool:
        """Whether the detector currently distrusts ``node_id``."""
        return node_id in self.suspected

    def suspected_nodes(self) -> list[int]:
        """Currently suspected node ids, in suspicion order."""
        return list(self.suspected)

    def phi(self, node_id: int) -> float:
        """The node's current accrual level, in expected-heartbeat units."""
        last = self._last_arrival.get(node_id)
        if last is None:
            return 0.0
        intervals = self._intervals[node_id]
        mean = (
            sum(intervals) / len(intervals)
            if intervals
            else self.heartbeat_interval
        )
        return (self.cluster.sim.now - last) / mean

    # -- internals ------------------------------------------------------------

    def _delivered(self, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        if not node.alive:
            return False
        if not self.cluster.reachable(node_id, self.home):
            return False
        base = self._base_uplink[node_id]
        return node.uplink.capacity >= MIN_HEARTBEAT_CAPACITY * base

    def _ground_truth_ok(self, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        return node.alive and self.cluster.reachable(node_id, self.home)

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.cluster.sim.now
        for node_id in self._last_arrival:
            if self._delivered(node_id):
                self._intervals[node_id].append(
                    now - self._last_arrival[node_id]
                )
                self._last_arrival[node_id] = now
                if node_id in self.suspected:
                    self._restore(node_id, now)
            elif (
                node_id not in self.suspected
                and self.phi(node_id) >= THRESHOLD
            ):
                self._suspect(node_id, now)
        self.cluster.sim.schedule(self.heartbeat_interval, self._tick)

    def _suspect(self, node_id: int, now: float) -> None:
        false_positive = self._ground_truth_ok(node_id)
        self.suspected[node_id] = now
        self.suspicions.append((now, node_id, false_positive))
        if false_positive:
            self.false_suspicions += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.suspicions").inc()
            if false_positive:
                registry.counter("monitor.false_suspicions").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "detector.suspect",
                track="faults",
                node=node_id,
                false_positive=false_positive,
            )
        self.emit("suspect", self, node_id=node_id, false_positive=false_positive)

    def _restore(self, node_id: int, now: float) -> None:
        del self.suspected[node_id]
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.suspicions_cleared").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("detector.restore", track="faults", node=node_id)
        self.emit("restore", self, node_id=node_id)
