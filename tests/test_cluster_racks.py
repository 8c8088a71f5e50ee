"""Tests for the two-level (rack-aware) topology extension."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.repair import ConventionalRepair, RepairRunner


class TestRackStructure:
    def test_round_robin_assignment(self):
        cluster = Cluster(num_nodes=6, num_clients=0, racks=3)
        assert cluster.rack_of(0) == 0
        assert cluster.rack_of(1) == 1
        assert cluster.rack_of(3) == 0

    def test_clients_in_access_rack(self):
        cluster = Cluster(num_nodes=4, num_clients=2, racks=2)
        assert cluster.rack_of(4) == 2
        assert cluster.rack_of(5) == 2

    def test_flat_topology_has_no_racks(self):
        cluster = Cluster(num_nodes=4, num_clients=0)
        assert cluster.rack_of(0) is None

    def test_invalid_params(self):
        with pytest.raises(SimulationError):
            Cluster(num_nodes=4, num_clients=0, racks=0)
        with pytest.raises(SimulationError):
            Cluster(num_nodes=4, num_clients=0, racks=8)
        with pytest.raises(SimulationError):
            Cluster(num_nodes=4, num_clients=0, racks=2, oversubscription=0.5)


class TestRackPaths:
    def test_intra_rack_skips_core(self):
        cluster = Cluster(num_nodes=6, num_clients=0, racks=3)
        # Nodes 0 and 3 share rack 0.
        names = [r.name for r in cluster.transfer_resources(0, 3)]
        assert not any("rack" in n for n in names)

    def test_cross_rack_crosses_core(self):
        cluster = Cluster(num_nodes=6, num_clients=0, racks=3)
        names = [r.name for r in cluster.transfer_resources(0, 1)]
        assert "rack0.up" in names
        assert "rack1.down" in names

    def test_oversubscription_throttles_cross_rack(self):
        # 2 racks x 2 nodes, 4x oversubscribed core: the rack pipe is
        # 2 * 100 / 4 = 50 MB/s, half a node link, so a cross-rack
        # transfer takes twice the intra-rack time.
        results = {}
        for label, src, dst in (("intra", 0, 2), ("cross", 0, 1)):
            cluster = Cluster(
                num_nodes=4, num_clients=0, racks=2, oversubscription=4.0,
                link_bw=mbs(100), disk_bw=mbs(10000),
            )
            t = cluster.make_transfer(src, dst, 100 * MB, 25 * MB)
            cluster.start(t)
            cluster.sim.run()
            results[label] = t.completed_at
        assert results["cross"] == pytest.approx(results["intra"] * 2.0, rel=0.05)

    def test_full_node_repair_on_racked_cluster(self):
        code = RSCode(4, 2)
        cluster = Cluster(
            num_nodes=12, num_clients=0, racks=4, oversubscription=3.0,
            link_bw=mbs(100),
        )
        store = place_stripes(code, 15, cluster.storage_ids, chunk_size=8 * MB, seed=1)
        injector = FailureInjector(cluster, store)
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=2),
            chunk_size=8 * MB, slice_size=2 * MB,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert runner.done

    def test_oversubscribed_repair_slower_than_flat(self):
        def run(racks, oversub):
            code = RSCode(4, 2)
            kw = {} if racks is None else {"racks": racks, "oversubscription": oversub}
            cluster = Cluster(num_nodes=12, num_clients=0, link_bw=mbs(100), **kw)
            store = place_stripes(code, 15, cluster.storage_ids, chunk_size=8 * MB, seed=1)
            injector = FailureInjector(cluster, store)
            report = injector.fail_nodes([0])
            runner = RepairRunner(
                cluster, store, injector, ConventionalRepair(seed=2),
                chunk_size=8 * MB, slice_size=2 * MB,
            )
            runner.repair(report.failed_chunks)
            cluster.sim.run()
            return runner.meter.throughput

        assert run(None, None) > run(4, 5.0)
