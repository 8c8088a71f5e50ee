"""Accrual failure detection: suspicion, restoration, ground-truth audit."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.monitor import FailureDetector

CHUNK = 16 * MB


def make_env(num_nodes=8, num_clients=1):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=num_clients, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), 10, cluster.storage_ids,
                          chunk_size=CHUNK, seed=0)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


def make_detector(cluster, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.25)
    return FailureDetector(cluster, **kwargs).start()


class TestLifecycle:
    def test_healthy_cluster_never_suspected(self):
        cluster, _, _ = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=10.0)
        assert detector.suspicions == []
        assert detector.suspected_nodes() == []
        assert detector.false_suspicions == 0

    def test_double_start_rejected(self):
        cluster, _, _ = make_env()
        detector = make_detector(cluster)
        with pytest.raises(SimulationError):
            detector.start()

    def test_validation(self):
        cluster, _, _ = make_env()
        with pytest.raises(SimulationError):
            FailureDetector(cluster, heartbeat_interval=0.0)
        with pytest.raises(SimulationError):
            FailureDetector(cluster, heartbeat_interval=-1.0)

    def test_stop_halts_observation(self):
        cluster, _, injector = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=2.0)
        detector.stop()
        injector.fail_nodes([3])
        cluster.sim.run(until=10.0)
        assert not detector.is_suspected(3)


class TestSuspicion:
    def test_crashed_node_suspected_within_accrual_window(self):
        cluster, _, injector = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=2.0)
        injector.fail_nodes([3])
        events = []
        detector.on(
            "suspect",
            lambda _d, node_id, false_positive: events.append(
                (node_id, false_positive)
            ),
        )
        # phi accrues one unit per missed heartbeat: THRESHOLD = 3 means
        # suspicion lands ~3 intervals after the crash, far below any
        # plausible chunk_timeout.
        cluster.sim.run(until=2.0 + 5 * 0.25)
        assert events == [(3, False)]
        assert detector.is_suspected(3)
        assert detector.false_suspicions == 0

    def test_partitioned_node_suspected_then_restored(self):
        cluster, _, _ = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=2.0)
        pid = cluster.apply_partition([[4]])
        cluster.sim.run(until=4.0)
        assert detector.is_suspected(4)
        # A hard partition is a true positive: the node really is
        # unreachable from home at fire time.
        assert detector.false_suspicions == 0
        restored = []
        detector.on("restore", lambda _d, node_id: restored.append(node_id))
        cluster.heal_partition(pid)
        cluster.sim.run(until=5.0)
        assert restored == [4]
        assert not detector.is_suspected(4)

    def test_throttled_heartbeats_count_as_false_suspicion(self):
        cluster, _, _ = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=2.0)
        node = cluster.node(5)
        base = node.uplink.capacity
        node.uplink.set_capacity(base * 0.01)  # below the heartbeat floor
        cluster.sim.run(until=4.0)
        assert detector.is_suspected(5)
        # Ground truth says alive + reachable: precision loss is audited.
        assert detector.false_suspicions == 1
        node.uplink.set_capacity(base)
        cluster.sim.run(until=5.0)
        assert not detector.is_suspected(5)

    def test_phi_accrues_while_starved(self):
        cluster, _, injector = make_env()
        detector = make_detector(cluster)
        cluster.sim.run(until=2.0)
        injector.fail_nodes([2])
        cluster.sim.run(until=3.0)
        early = detector.phi(2)
        cluster.sim.run(until=5.0)
        assert detector.phi(2) > early > 0.0

    def test_home_node_is_never_monitored(self):
        cluster, _, _ = make_env(num_clients=0)
        detector = make_detector(cluster)  # home falls back to node 0
        assert detector.home == cluster.storage_nodes[0].id
        cluster.sim.run(until=5.0)
        assert not detector.is_suspected(detector.home)
        assert detector.phi(detector.home) == 0.0
