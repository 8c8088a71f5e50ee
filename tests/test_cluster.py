"""Tests for the cluster model: nodes, placement, stripes, failures."""

import pytest

from repro.cluster import (
    ChunkId,
    Cluster,
    FailureInjector,
    MB,
    Stripe,
    StripeStore,
    gbps,
    mbs,
    place_stripes,
)
from repro.codes import RSCode
from repro.errors import SimulationError


class TestUnits:
    def test_gbps(self):
        assert gbps(10) == pytest.approx(1.25e9)

    def test_mbs(self):
        assert mbs(500) == pytest.approx(5e8)


class TestCluster:
    def test_node_counts(self):
        c = Cluster(num_nodes=20, num_clients=4)
        assert len(c.storage_nodes) == 20
        assert len(c.clients) == 4
        assert c.clients[0].id == 20

    def test_unknown_node_raises(self):
        with pytest.raises(SimulationError):
            Cluster(num_nodes=2, num_clients=0).node(5)

    def test_fail_node(self):
        c = Cluster(num_nodes=4, num_clients=0)
        c.fail_node(2)
        assert not c.node(2).alive
        assert c.alive_storage_ids() == [0, 1, 3]
        assert c.failed_node_ids() == {2}

    def test_cannot_fail_client(self):
        c = Cluster(num_nodes=2, num_clients=1)
        with pytest.raises(SimulationError):
            c.fail_node(2)

    def test_transfer_resources_paths(self):
        c = Cluster(num_nodes=3, num_clients=0)
        res = c.transfer_resources(0, 1, read_disk=True, write_disk=True)
        names = [r.name for r in res]
        assert names == ["n0.dread", "n0.up", "n1.down", "n1.dwrite"]
        res2 = c.transfer_resources(0, 1, read_disk=False)
        assert [r.name for r in res2] == ["n0.up", "n1.down"]

    def test_transfer_completes(self):
        c = Cluster(num_nodes=2, num_clients=0, link_bw=mbs(100))
        t = c.make_transfer(0, 1, 100 * MB, 10 * MB)
        c.start(t)
        c.sim.run()
        assert t.completed_at == pytest.approx(1.0)

    def test_set_link_bandwidth(self):
        c = Cluster(num_nodes=2, num_clients=0, link_bw=mbs(100))
        c.set_link_bandwidth(mbs(50))
        t = c.make_transfer(0, 1, 100 * MB, 10 * MB)
        c.start(t)
        c.sim.run()
        assert t.completed_at == pytest.approx(2.0)

    def test_disk_bottleneck(self):
        c = Cluster(num_nodes=2, num_clients=0, link_bw=mbs(1000), disk_bw=mbs(100))
        t = c.make_transfer(0, 1, 100 * MB, 10 * MB, read_disk=True)
        c.start(t)
        c.sim.run()
        assert t.completed_at == pytest.approx(1.0)


class TestPlacement:
    def test_stripes_span_distinct_nodes(self):
        code = RSCode(4, 2)
        store = place_stripes(code, 50, list(range(10)), chunk_size=MB, seed=1)
        assert len(store) == 50
        for stripe in store.stripes.values():
            assert len(set(stripe.chunk_nodes)) == 6

    def test_too_few_nodes_raises(self):
        with pytest.raises(SimulationError):
            place_stripes(RSCode(10, 4), 1, list(range(5)), chunk_size=MB)

    def test_deterministic_with_seed(self):
        code = RSCode(4, 2)
        a = place_stripes(code, 10, list(range(10)), chunk_size=MB, seed=7)
        b = place_stripes(code, 10, list(range(10)), chunk_size=MB, seed=7)
        assert all(
            a.stripes[i].chunk_nodes == b.stripes[i].chunk_nodes for i in range(10)
        )


class TestStripeStore:
    def make_store(self):
        code = RSCode(2, 1)
        store = StripeStore(code=code, chunk_size=MB)
        store.add(Stripe(stripe_id=0, chunk_nodes=[0, 1, 2]))
        return store

    def test_node_of(self):
        store = self.make_store()
        assert store.node_of(ChunkId(0, 1)) == 1

    def test_wrong_width_rejected(self):
        store = self.make_store()
        with pytest.raises(SimulationError):
            store.add(Stripe(stripe_id=1, chunk_nodes=[0, 1]))

    def test_duplicate_node_rejected(self):
        store = self.make_store()
        with pytest.raises(SimulationError):
            store.add(Stripe(stripe_id=1, chunk_nodes=[0, 0, 1]))

    def test_relocate(self):
        store = self.make_store()
        store.relocate(ChunkId(0, 0), 5)
        assert store.node_of(ChunkId(0, 0)) == 5

    def test_relocate_conflict_rejected(self):
        store = self.make_store()
        with pytest.raises(SimulationError):
            store.relocate(ChunkId(0, 0), 1)

    def test_chunks_on_node(self):
        store = self.make_store()
        assert store.chunks_on_node(1) == [ChunkId(0, 1)]

    def test_survivors(self):
        store = self.make_store()
        surv = store.survivors(ChunkId(0, 0), failed_nodes={0})
        assert surv == {1: 1, 2: 2}


class TestFailureInjector:
    def make_env(self):
        cluster = Cluster(num_nodes=10, num_clients=0)
        code = RSCode(4, 2)
        store = place_stripes(code, 30, cluster.storage_ids, chunk_size=MB, seed=3)
        return cluster, store, FailureInjector(cluster, store)

    def test_fail_node_reports_chunks(self):
        cluster, store, injector = self.make_env()
        report = injector.fail_nodes([0])
        assert report.failed_nodes == [0]
        assert set(report.failed_chunks) == set(store.chunks_on_node(0))
        assert all(store.node_of(c) == 0 for c in report.failed_chunks)

    def test_exceeding_tolerance_raises(self):
        cluster, store, injector = self.make_env()
        with pytest.raises(SimulationError):
            injector.fail_nodes([0, 1, 2])

    def test_candidate_destinations_exclude_stripe_nodes(self):
        cluster, store, injector = self.make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        stripe_nodes = store.stripes[chunk.stripe].nodes()
        for dest in injector.candidate_destinations(chunk):
            assert dest not in stripe_nodes
            assert cluster.node(dest).alive

    def test_surviving_sources(self):
        cluster, store, injector = self.make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        sources = injector.surviving_sources(chunk)
        assert len(sources) == 5  # n - 1 survivors for a single failure
        assert chunk.index not in sources
        assert 0 not in sources.values()
