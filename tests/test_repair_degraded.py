"""Tests for the degraded-read path (client-destination repair)."""

import numpy as np
import pytest

from repro.cluster import (
    ChunkId,
    Cluster,
    FailureInjector,
    MB,
    drop_node_chunks,
    encode_and_load,
    mbs,
    place_stripes,
)
from repro.codes import RSCode
from repro.errors import SchedulingError
from repro.integrity import IntegrityLedger
from repro.monitor import BandwidthMonitor
from repro.repair import (
    ConventionalRepair,
    ECPipe,
    DegradedRead,
    degraded_read_plan,
    execute_plan,
    run_degraded_read,
)

CHUNK = 8 * MB
SLICE = 2 * MB


def make_env(seed=0):
    code = RSCode(4, 2)
    cluster = Cluster(num_nodes=12, num_clients=2, link_bw=mbs(200))
    store = place_stripes(code, 15, cluster.storage_ids, chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


class TestDegradedReadPlan:
    def test_destination_is_client(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        client = cluster.clients[0].id
        plan = degraded_read_plan(
            ConventionalRepair(seed=1), chunk, store, injector, client
        )
        assert plan.destination == client
        assert all(v == client for v in plan.parent.values())

    def test_plan_decodes_real_bytes(self):
        cluster, store, injector = make_env()
        code = store.code
        rng = np.random.default_rng(2)
        data = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(code.k)]
        stripe = code.encode(data)
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        plan = degraded_read_plan(
            ECPipe(seed=3), chunk, store, injector, cluster.clients[0].id
        )
        repaired = execute_plan(
            plan, {s.chunk_index: stripe[s.chunk_index] for s in plan.sources}
        )
        assert np.array_equal(repaired, stripe[chunk.index])

    def test_no_survivors_raises(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        # Fake an injector that reports nothing available.
        class Empty:
            def surviving_sources(self, _):
                return {}

        with pytest.raises(SchedulingError):
            degraded_read_plan(
                ConventionalRepair(), chunk, store, Empty(), cluster.clients[0].id
            )


class TestRunDegradedRead:
    def test_baseline_read_completes(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        read, instance = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=4), slice_size=SLICE,
        )
        cluster.sim.run()
        assert read.completed_at is not None
        assert read.latency > 0
        assert read.throughput(CHUNK) > 0

    def test_chameleon_read_completes(self):
        cluster, store, injector = make_env()
        monitor = BandwidthMonitor(cluster, window=1.0)
        monitor.start()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        read, instance = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[1].id,
            monitor=monitor, slice_size=SLICE,
        )
        while read.completed_at is None and cluster.sim.now < 100:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert read.completed_at is not None
        assert instance.plan.destination == cluster.clients[1].id

    def test_chameleon_requires_monitor(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        with pytest.raises(SchedulingError):
            run_degraded_read(
                cluster, store, injector, report.failed_chunks[0],
                cluster.clients[0].id, slice_size=SLICE,
            )

    def test_metadata_not_relocated(self):
        # Degraded reads serve the client without repairing the chunk back.
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        before = store.node_of(chunk)
        read, _ = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=5), slice_size=SLICE,
        )
        cluster.sim.run()
        assert store.node_of(chunk) == before

    def test_latency_before_completion_raises(self):
        read = DegradedRead(chunk=None, client=1, issued_at=0.0)
        with pytest.raises(SchedulingError):
            _ = read.latency


class TestVerifiedDegradedRead:
    def verified_env(self, seed=0):
        cluster, store, injector = make_env(seed=seed)
        chunk_store = encode_and_load(store, payload_size=64, seed=seed + 1)
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        drop_node_chunks(chunk_store, store, 0)
        return cluster, store, injector, chunk_store, chunk

    def test_clean_read_delivers_exact_bytes(self):
        cluster, store, injector, cs, chunk = self.verified_env()
        read, _ = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=4), slice_size=SLICE,
            chunk_store=cs,
        )
        cluster.sim.run()
        assert read.attempts == 1 and not read.detected
        assert np.array_equal(read.payload, cs.truth(chunk))

    def test_corrupt_helper_detected_and_routed_around(self):
        # Predict the first plan with a same-seeded probe rng, corrupt
        # one of its helpers: the verified read must quarantine it, fall
        # back to an alternate plan, and still deliver correct bytes.
        cluster, store, injector, cs, chunk = self.verified_env(seed=3)
        probe = degraded_read_plan(
            ConventionalRepair(seed=8), chunk, store, injector,
            cluster.clients[0].id,
        )
        bad = ChunkId(chunk.stripe, probe.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(5))
        ledger = IntegrityLedger(cluster.sim)
        ledger.record_injection(bad, "corruption")
        read, _ = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=8), slice_size=SLICE,
            chunk_store=cs, ledger=ledger,
        )
        cluster.sim.run()
        assert read.detected == [bad]
        assert read.attempts == 2
        assert injector.is_quarantined(bad)
        assert np.array_equal(read.payload, cs.truth(chunk))
        assert ledger.records[bad].detected_by == "degraded_read"
        # The fallback plan cannot have reused the quarantined helper.

    def test_lost_helper_is_not_counted_corrupt(self):
        # A helper whose node died after its upload landed fails
        # verification too, but it is lost, not corrupt: the read
        # quarantines it and re-plans, and nothing counts as detected.
        cluster, store, injector, cs, chunk = self.verified_env()
        ledger = IntegrityLedger(cluster.sim)
        read, instance = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=4), slice_size=SLICE,
            chunk_store=cs, ledger=ledger,
        )
        # The uploads land at one instant: drop the first one's helper,
        # while the others are still to land.
        landed = []

        def land(source):
            def on_complete(_t):
                landed.append(ChunkId(chunk.stripe, source.chunk_index))
                if len(landed) == 1:
                    cs.drop(landed[0])
            return on_complete

        for source in instance.plan.sources:
            instance.uploads[source.node_id].on_complete.append(land(source))
        cluster.sim.run()
        lost = landed[0]
        assert len(landed) == len(instance.plan.sources) > 1
        assert read.detected == ledger.unexplained == []
        assert injector.is_quarantined(lost)
        assert read.attempts == 2
        assert np.array_equal(read.payload, cs.truth(chunk))

    def test_exhausting_attempts_raises(self):
        cluster, store, injector, cs, chunk = self.verified_env(seed=3)
        probe = degraded_read_plan(
            ConventionalRepair(seed=8), chunk, store, injector,
            cluster.clients[0].id,
        )
        bad = ChunkId(chunk.stripe, probe.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(6))
        read, _ = run_degraded_read(
            cluster, store, injector, chunk, cluster.clients[0].id,
            algorithm=ConventionalRepair(seed=8), slice_size=SLICE,
            chunk_store=cs, max_attempts=1,
        )
        with pytest.raises(SchedulingError, match="exhausted"):
            cluster.sim.run()
        assert read.payload is None
