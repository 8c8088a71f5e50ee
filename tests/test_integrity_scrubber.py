"""Background scrubber: paced scanning, detection, repair hand-off."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    FailureInjector,
    MB,
    drop_node_chunks,
    encode_and_load,
    mbs,
    place_stripes,
)
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.faults import FaultTimeline
from repro.integrity import IntegrityLedger, Scrubber
from repro.repair import ConventionalRepair, DataPlane, RepairRunner
from repro.sim.resources import SCRUB_TAG

CHUNK = 8 * MB
SLICE = 2 * MB


def make_env(num_nodes=12, num_stripes=10, seed=0):
    cluster = Cluster(num_nodes=num_nodes, num_clients=0, link_bw=mbs(200))
    store = place_stripes(RSCode(4, 2), num_stripes, cluster.storage_ids,
                          chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    chunk_store = encode_and_load(store, payload_size=64, seed=seed + 1)
    return cluster, store, injector, chunk_store


def make_scrubber(cluster, store, injector, chunk_store, *, rate_mbs=80.0, **kw):
    return Scrubber(cluster, store, chunk_store, injector,
                    rate=mbs(rate_mbs), slice_size=SLICE, **kw)


class TestLifecycle:
    def test_validation(self):
        cluster, store, injector, cs = make_env()
        with pytest.raises(SimulationError):
            make_scrubber(cluster, store, injector, cs, rate_mbs=0)
        with pytest.raises(SimulationError):
            make_scrubber(cluster, store, injector, cs, passes=0)

    def test_cannot_start_twice(self):
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs)
        scrubber.start()
        with pytest.raises(SimulationError):
            scrubber.start()

    def test_stop_halts_scanning(self):
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs)
        scrubber.start()
        cluster.sim.run(until=1.0)
        scrubber.stop()
        assert not scrubber.running
        scanned = scrubber.chunks_scanned
        assert 0 < scanned < len(cs)
        cluster.sim.run(until=5.0)
        # The in-flight scrub may still land; nothing new is issued.
        assert scrubber.chunks_scanned <= scanned + 1
        settled = scrubber.chunks_scanned
        cluster.sim.run(until=10.0)
        assert scrubber.chunks_scanned == settled


class TestScanning:
    def test_one_pass_scans_every_chunk_in_order(self):
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs, passes=1)
        order = []
        scrubber.on("chunk_scrubbed", lambda s, **kw: order.append(kw["chunk"]))
        passes = []
        scrubber.on("pass_complete", lambda s, **kw: passes.append(kw["passes"]))
        scrubber.start()
        cluster.sim.run()
        assert scrubber.chunks_scanned == len(cs)
        assert order == list(cs.chunks())  # deterministic (stripe, index) order
        assert passes == [1] and scrubber.passes_completed == 1
        assert not scrubber.running  # max_passes reached

    def test_scan_is_paced_at_the_target_rate(self):
        # 8 MB chunks at 80 MB/s = one scan per 0.1 s of virtual time;
        # a full pass over 60 chunks should take about 6 s, not less.
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs,
                                 rate_mbs=80.0, passes=1)
        scrubber.start()
        cluster.sim.run()
        expected = len(cs) * CHUNK / mbs(80.0)
        assert cluster.sim.now == pytest.approx(expected, rel=0.1)

    def test_set_rate_repaces_a_live_scan(self):
        """Regression: ``_interval`` was frozen at construction, so a
        rate change was silently ignored. Halving the rate mid-pass must
        double the spacing of subsequent scans and stretch the pass."""
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs,
                                 rate_mbs=80.0, passes=1)
        scrubber.start()
        cluster.sim.run(until=1.0)
        half_pace = scrubber.chunks_scanned
        scrubber.set_rate(mbs(40.0))
        assert scrubber.rate == mbs(40.0)
        cluster.sim.run()
        # 10 scans in the first second (80 MB/s over 8 MB chunks), the
        # remaining 50 at 5/s: about 11 s total instead of 6 s.
        expected = 1.0 + (len(cs) - half_pace) * CHUNK / mbs(40.0)
        assert cluster.sim.now == pytest.approx(expected, rel=0.1)

    def test_set_rate_validation(self):
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs)
        with pytest.raises(SimulationError):
            scrubber.set_rate(0.0)
        with pytest.raises(SimulationError):
            scrubber.set_rate(-5.0)

    def test_skips_quarantined_and_missing_chunks(self):
        cluster, store, injector, cs = make_env()
        chunks = list(cs.chunks())
        injector.quarantine(chunks[0])
        cs.drop(chunks[1])
        scrubber = make_scrubber(cluster, store, injector, cs, passes=1)
        seen = []
        scrubber.on("chunk_scrubbed", lambda s, **kw: seen.append(kw["chunk"]))
        scrubber.start()
        cluster.sim.run()
        assert chunks[0] not in seen
        assert chunks[1] not in seen
        assert scrubber.chunks_scanned == len(chunks) - 2

    def test_skips_dead_node_chunks(self):
        cluster, store, injector, cs = make_env()
        report = injector.fail_nodes([0])
        lost = drop_node_chunks(cs, store, 0)
        assert lost
        scrubber = make_scrubber(cluster, store, injector, cs, passes=1)
        seen = []
        scrubber.on("chunk_scrubbed", lambda s, **kw: seen.append(kw["chunk"]))
        scrubber.start()
        cluster.sim.run()
        assert not set(report.failed_chunks) & set(seen)
        assert scrubber.chunks_scanned == len(cs)


class TestPartition:
    CUT_AT, CUT_FOR = 0.05, 30.0

    def scrub_through_a_cut(self):
        """A 400 MB/s scrubber; at 0.05 s a 30 s cut isolates the source
        node of the scan then in flight. Returns the node, the parked scan,
        the scrubber and every (time, source node) scanned."""
        cluster, store, injector, cs = make_env()
        scrubber = make_scrubber(cluster, store, injector, cs, rate_mbs=400.0)
        seen = []
        scrubber.on(
            "chunk_scrubbed",
            lambda s, chunk, **kw: seen.append(
                (cluster.sim.now, store.stripes[chunk.stripe].node_of(chunk.index))
            ),
        )
        scrubber.start()
        cluster.sim.run(until=self.CUT_AT)
        (scan,) = cluster.transfers.live_transfers(SCRUB_TAG)
        FaultTimeline().partition(0.0, [[scan.src]], duration=self.CUT_FOR).arm(cluster)
        cluster.sim.run(until=self.CUT_AT + self.CUT_FOR + 5.0)
        scrubber.stop()
        return scan.src, scan, scrubber, seen

    def test_scanning_progresses_during_the_cut(self):
        """The scan the cut parked fails instead of holding the scrubber,
        verifiers are picked on the source's side of the cut, and the
        cut-off node's chunks wait for a later pass."""
        node, scan, scrubber, seen = self.scrub_through_a_cut()
        heal = self.CUT_AT + self.CUT_FOR
        assert scan.failed and scan.failure_reason == "partitioned"
        during = [src for t, src in seen if self.CUT_AT < t < heal]
        assert len(during) > 100
        assert node not in during
        assert node in [src for t, src in seen if t > heal]


class TestDetection:
    def test_detects_quarantines_and_records(self):
        cluster, store, injector, cs = make_env()
        ledger = IntegrityLedger(cluster.sim)
        victims = list(cs.chunks())[5:7]
        rng = np.random.default_rng(3)
        for victim in victims:
            cs.corrupt(victim, rng=rng)
            ledger.record_injection(victim, "corruption")
        scrubber = make_scrubber(cluster, store, injector, cs,
                                 ledger=ledger, passes=1)
        hits = []
        scrubber.on("corruption_detected", lambda s, **kw: hits.append(kw["chunk"]))
        scrubber.start()
        cluster.sim.run()
        assert scrubber.detected == victims == hits
        assert all(injector.is_quarantined(v) for v in victims)
        summary = ledger.summary()
        assert summary["detected"] == summary["injected"] == 2
        assert all(r.detected_by == "scrub" for r in ledger.records.values())
        assert all(latency > 0 for latency in ledger.detection_latencies())

    def test_detection_enqueues_to_started_repairer(self):
        cluster, store, injector, cs = make_env()
        report = injector.fail_nodes([0])
        drop_node_chunks(cs, store, 0)
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=2),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        plane = DataPlane(cs, store, injector)
        plane.attach(runner)
        victim = next(c for c in cs.chunks())
        cs.corrupt(victim, rng=np.random.default_rng(4))
        scrubber = make_scrubber(cluster, store, injector, cs,
                                 rate_mbs=200.0, passes=1)
        # The scrubber knows no coordinator: its owner subscribes.
        scrubber.on(
            "corruption_detected", lambda _s, chunk: runner.add_chunks([chunk])
        )
        runner.repair(report.failed_chunks)
        scrubber.start()
        cluster.sim.run()
        assert runner.done
        assert victim in scrubber.detected
        # The detection flowed through add_chunks into a verified repair:
        assert victim in plane.repaired
        assert cs.matches_truth(victim)
        assert not injector.is_quarantined(victim)  # released on write-back
        plane.verify(deep=True)  # end-of-run audit: nothing unsound remains

    def test_quarantined_detection_not_rescanned(self):
        # Once detected, a still-broken chunk is skipped on later passes
        # (repair owns it) — so it is counted exactly once.
        cluster, store, injector, cs = make_env(num_stripes=4)
        victim = next(iter(cs.chunks()))
        cs.corrupt(victim, rng=np.random.default_rng(5))
        scrubber = make_scrubber(cluster, store, injector, cs,
                                 rate_mbs=400.0, passes=3)
        scrubber.start()
        cluster.sim.run()
        assert scrubber.passes_completed == 3
        assert scrubber.detected == [victim]
