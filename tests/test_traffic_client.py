"""Tests for the key router and closed-loop trace clients."""

import pytest

from repro.cluster import MB, Cluster, Stripe, mbs, place_stripes
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.traffic import KeyRouter, TraceClient, launch_clients, uniform_trace
from repro.traffic.client import CONCURRENCY, THINK_TIME


def make_env(num_clients=2):
    cluster = Cluster(num_nodes=8, num_clients=num_clients, link_bw=mbs(200))
    code = RSCode(4, 2)
    store = place_stripes(code, 20, cluster.storage_ids, chunk_size=4 * MB, seed=1)
    return cluster, store, KeyRouter(store, cluster)


class TestKeyRouter:
    def test_deterministic(self):
        cluster, store, router = make_env()
        assert router.node_for(12345) == router.node_for(12345)

    def test_routes_to_data_chunk_owner(self):
        cluster, store, router = make_env()
        stripe_id, chunk_index = router.locate(7)
        assert chunk_index < store.code.k
        assert router.node_for(7) == store.stripes[stripe_id].node_of(chunk_index)

    def test_failed_owner_falls_back_to_survivor(self):
        cluster, store, router = make_env()
        key = 7
        owner = router.node_for(key)
        cluster.fail_node(owner)
        fallback = router.node_for(key)
        assert fallback != owner
        assert cluster.node(fallback).alive

    def test_cached_stripe_order_routes_like_a_fresh_sort(self):
        cluster, store, router = make_env()

        def uncached(key):
            ids = sorted(store.stripes)
            stripe = store.stripes[ids[key % len(ids)]]
            return stripe.node_of((key // len(ids)) % store.code.k)

        assert [router.node_for(key) for key in range(1000)] == [
            uncached(key) for key in range(1000)
        ]
        # A stripe id that sorts first shifts every key's stripe.
        store.add(Stripe(-1, list(cluster.storage_ids[: store.code.n])))
        assert [router.node_for(key) for key in range(1000)] == [
            uncached(key) for key in range(1000)
        ]

    def test_empty_store_rejected(self):
        from repro.cluster import StripeStore

        cluster = Cluster(num_nodes=4, num_clients=0)
        with pytest.raises(SimulationError):
            KeyRouter(StripeStore(code=RSCode(2, 1), chunk_size=MB), cluster)


class TestTraceClient:
    def make_client(self, cluster, router, **kw):
        kw.setdefault("num_requests", 10)
        kw.setdefault("slice_size", MB)
        return TraceClient(
            cluster, cluster.clients[0], uniform_trace(seed=3), router, **kw
        )

    def test_completes_fixed_request_count(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router, num_requests=10)
        client.start()
        cluster.sim.run()
        assert client.done
        assert client.issued == 10
        assert client.latency.count == 10
        assert client.execution_time > 0

    def test_latencies_positive(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router)
        client.start()
        cluster.sim.run()
        assert all(lat > 0 for lat in client.latency.samples)

    def test_unbounded_client_stops_on_request(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router, num_requests=None)
        client.start()
        cluster.sim.schedule(2.0, client.stop)
        cluster.sim.run()
        assert client.done
        assert client.issued > 10

    def test_concurrency_outstanding_requests(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router, num_requests=40)
        client.start()
        assert client.issued == CONCURRENCY
        cluster.sim.run()
        assert client.issued == 40

    def test_think_time_slows_issue_rate(self):
        # The first completion frees a slot, which issues THINK_TIME later.
        cluster, store, router = make_env()
        client = self.make_client(cluster, router, num_requests=CONCURRENCY + 1)
        issued = []

        def on_first_done(c, latency, size):
            if not issued:
                issued.append(c.issued)
                for delay in (THINK_TIME / 2, THINK_TIME * 1.5):
                    cluster.sim.schedule(delay, lambda: issued.append(c.issued))

        client.on("request_done", on_first_done)
        client.start()
        cluster.sim.run()
        assert issued == [CONCURRENCY, CONCURRENCY, CONCURRENCY + 1]

    def test_double_start_rejected(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router)
        client.start()
        with pytest.raises(SimulationError):
            client.start()

    def test_negative_requests_rejected(self):
        cluster, store, router = make_env()
        with pytest.raises(SimulationError):
            self.make_client(cluster, router, num_requests=-1)

    def test_bursting_client_pauses_and_resumes(self):
        cluster, store, router = make_env()
        client = self.make_client(
            cluster, router, num_requests=None, burst_on=0.5, burst_off=0.5
        )
        client.start()
        cluster.sim.schedule(10.0, client.stop)
        cluster.sim.run()
        assert client.done
        # Compare request volume: a bursting client issues fewer requests
        # than one running flat-out over the same span.
        cluster2, _, router2 = make_env()
        flat = TraceClient(
            cluster2, cluster2.clients[0], uniform_trace(seed=3), router2,
            num_requests=None,
        )
        flat.start()
        cluster2.sim.schedule(10.0, flat.stop)
        cluster2.sim.run()
        assert client.issued < flat.issued

    def test_bytes_moved_accounting(self):
        cluster, store, router = make_env()
        client = self.make_client(cluster, router, num_requests=6)
        client.start()
        cluster.sim.run()
        assert client.bytes_moved == pytest.approx(6 * 512_000, rel=0.01)


class TestLaunchClients:
    def test_one_client_per_node(self):
        cluster, store, router = make_env(num_clients=3)
        clients, latency = launch_clients(
            cluster, lambda i: uniform_trace(seed=i), router, requests_per_client=5
        )
        cluster.sim.run()
        assert len(clients) == 3
        assert all(c.done for c in clients)
        assert latency.count == 15
