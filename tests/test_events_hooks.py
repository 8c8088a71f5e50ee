"""The shared event-hook protocol (the sole subscription path)."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.events import HookEmitter
from repro.monitor import BandwidthMonitor
from repro.repair import ConventionalRepair, RepairRunner

CHUNK = 16 * MB
SLICE = 4 * MB


class Gadget(HookEmitter):
    HOOK_EVENTS = ("ping", "pong")


class OpenGadget(HookEmitter):
    pass  # no HOOK_EVENTS: any event name is accepted


def make_env():
    cluster = Cluster(
        num_nodes=12, num_clients=0, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), 20, cluster.storage_ids,
                          chunk_size=CHUNK, seed=0)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


class TestHookEmitter:
    def test_on_emit_payload(self):
        g = Gadget()
        seen = []
        g.on("ping", lambda emitter, **kw: seen.append((emitter, kw)))
        g.emit("ping", g, value=3)
        assert seen == [(g, {"value": 3})]

    def test_on_returns_self_for_chaining(self):
        g = Gadget()
        assert g.on("ping", lambda *a, **k: None) is g

    def test_unknown_event_rejected_at_subscription(self):
        g = Gadget()
        with pytest.raises(ValueError, match="unknown event"):
            g.on("pingg", lambda *a, **k: None)

    def test_unconstrained_emitter_accepts_any_event(self):
        g = OpenGadget()
        seen = []
        g.on("anything", lambda *a, **k: seen.append(1))
        g.emit("anything")
        assert seen == [1]

    def test_off_removes_subscription(self):
        g = Gadget()
        seen = []
        cb = lambda *a, **k: seen.append(1)  # noqa: E731
        g.on("ping", cb)
        g.off("ping", cb)
        g.off("ping", cb)  # no-op when already gone
        g.emit("ping", g)
        assert seen == []

    def test_emit_snapshots_subscribers(self):
        # A callback registered during emission must not see that emission.
        g = Gadget()
        seen = []

        def first(emitter):
            seen.append("first")
            emitter.on("ping", lambda e: seen.append("late"))

        g.on("ping", first)
        g.emit("ping", g)
        assert seen == ["first"]
        g.emit("ping", g)
        assert seen.count("late") == 1

    def test_event_keyword_allowed_in_payload(self):
        g = Gadget()
        seen = []
        g.on("ping", lambda emitter, event: seen.append(event))
        g.emit("ping", g, event="the-trigger")
        assert seen == ["the-trigger"]


class TestLegacyKwargsRemoved:
    """The deprecated ``on_all_done=``/``on_done=`` kwargs are gone; the
    constructors reject them like any unknown keyword, and ``on()`` is
    the replacement path."""

    def test_runner_rejects_on_all_done_kwarg(self):
        cluster, store, injector = make_env()
        with pytest.raises(TypeError, match="on_all_done"):
            RepairRunner(
                cluster, store, injector, ConventionalRepair(),
                chunk_size=CHUNK, slice_size=SLICE,
                on_all_done=lambda r: None,
            )

    def test_chameleon_rejects_on_all_done_kwarg(self):
        cluster, store, injector = make_env()
        monitor = BandwidthMonitor(cluster)
        monitor.start()
        with pytest.raises(TypeError, match="on_all_done"):
            ChameleonRepair(
                cluster, store, injector, monitor,
                chunk_size=CHUNK, slice_size=SLICE,
                on_all_done=lambda c: None,
            )

    def test_trace_client_rejects_on_done_kwarg(self):
        from repro.traffic import KeyRouter, TraceClient, ycsb_a

        cluster = Cluster(num_nodes=6, num_clients=1, link_bw=mbs(100))
        store = place_stripes(RSCode(4, 2), 6, cluster.storage_ids,
                              chunk_size=CHUNK, seed=1)
        router = KeyRouter(store, cluster)
        with pytest.raises(TypeError, match="on_done"):
            TraceClient(
                cluster, cluster.clients[0], ycsb_a(seed=2), router,
                num_requests=3, on_done=lambda c: None,
            )

    def test_on_event_is_the_replacement(self):
        cluster, store, injector = make_env()
        done = []
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(),
            chunk_size=CHUNK, slice_size=SLICE,
        ).on("all_done", lambda r: done.append(1))
        runner.repair([])
        assert done == [1]


class TestRepairEvents:
    def test_chunk_repaired_and_all_done_fire(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=1),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        repaired, finished = [], []
        runner.on("chunk_repaired", lambda r, chunk, plan: repaired.append(chunk))
        runner.on("all_done", lambda r: finished.append(r))
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert set(repaired) == set(report.failed_chunks)
        assert finished == [runner]

    def test_client_request_done_event(self):
        from repro.traffic import KeyRouter, TraceClient, ycsb_a

        cluster = Cluster(num_nodes=6, num_clients=1, link_bw=mbs(100))
        store = place_stripes(RSCode(4, 2), 6, cluster.storage_ids,
                              chunk_size=CHUNK, seed=1)
        router = KeyRouter(store, cluster)
        client = TraceClient(
            cluster, cluster.clients[0], ycsb_a(seed=2), router, num_requests=5,
        )
        latencies = []
        client.on("request_done", lambda c, latency, size: latencies.append(latency))
        client.start()
        cluster.sim.run()
        assert len(latencies) == 5
        assert all(lat > 0 for lat in latencies)
