"""Heterogeneous clusters: one node's resource throttled after construction.

A cluster is built uniform; a slow NIC or an ageing disk is one
``Resource.set_capacity`` call on that node's resource (as
``benchmarks/test_ext_heterogeneous.py`` builds its slow nodes).
"""

import pytest

from repro.cluster import Cluster, MB, gbps, mbs


class TestNodeOverrides:
    def test_override_applied(self):
        cluster = Cluster(num_nodes=4, num_clients=0, link_bw=gbps(10))
        cluster.node(2).uplink.set_capacity(gbps(1))
        assert cluster.node(2).uplink.capacity == pytest.approx(gbps(1))
        assert cluster.node(2).downlink.capacity == pytest.approx(gbps(10))
        assert cluster.node(0).uplink.capacity == pytest.approx(gbps(10))

    def test_multiple_fields(self):
        cluster = Cluster(num_nodes=3, num_clients=0)
        cluster.node(1).disk_read.set_capacity(mbs(100))
        cluster.node(1).disk_write.set_capacity(mbs(50))
        assert cluster.node(1).disk_read.capacity == pytest.approx(mbs(100))
        assert cluster.node(1).disk_write.capacity == pytest.approx(mbs(50))
        assert cluster.node(0).disk_write.capacity == pytest.approx(mbs(500))

    def test_slow_node_throttles_transfer(self):
        cluster = Cluster(
            num_nodes=2, num_clients=0, link_bw=mbs(1000), disk_bw=mbs(10000)
        )
        cluster.node(0).uplink.set_capacity(mbs(10))
        t = cluster.make_transfer(0, 1, 10 * MB, 10 * MB)
        cluster.start(t)
        cluster.sim.run()
        assert t.completed_at == pytest.approx(1.0)

    def test_set_link_bandwidth_overrides_everything(self):
        cluster = Cluster(num_nodes=2, num_clients=0)
        cluster.node(0).uplink.set_capacity(mbs(10))
        cluster.set_link_bandwidth(mbs(77))
        assert cluster.node(0).uplink.capacity == pytest.approx(mbs(77))
