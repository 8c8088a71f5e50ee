"""Unit tests for ChameleonEC task dispatch (Section III-A)."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import ButterflyCode, LRCCode, RSCode
from repro.core import TaskDispatcher, repair_candidates
from repro.errors import SchedulingError
from repro.monitor import BandwidthMonitor

CHUNK = 16 * MB


def make_env(code=None, num_nodes=12, num_stripes=10, seed=0):
    code = code if code is not None else RSCode(4, 2)
    cluster = Cluster(num_nodes=num_nodes, num_clients=0, link_bw=mbs(100))
    store = place_stripes(code, num_stripes, cluster.storage_ids, chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    monitor = BandwidthMonitor(cluster)
    dispatcher = TaskDispatcher(injector, monitor, chunk_size=CHUNK)
    return cluster, store, injector, monitor, dispatcher


class TestCandidates:
    def test_rs_all_survivors_candidates(self):
        code = RSCode(4, 2)
        survivors = {i: 100 + i for i in range(1, 6)}
        cands, required = repair_candidates(code, 0, survivors)
        assert cands == survivors
        assert required == 4

    def test_rs_insufficient_survivors(self):
        code = RSCode(4, 2)
        with pytest.raises(SchedulingError):
            repair_candidates(code, 0, {1: 101, 2: 102, 3: 103})

    def test_lrc_local_candidates_fixed(self):
        code = LRCCode(4, 2, 2)
        survivors = {i: 100 + i for i in range(1, 8)}
        cands, required = repair_candidates(code, 0, survivors)
        assert required == 2  # k/l = 2 sources
        assert set(cands) <= {1, 4}  # group member + local parity

    def test_butterfly_candidates(self):
        code = ButterflyCode()
        survivors = {1: 101, 2: 102, 3: 103}
        cands, required = repair_candidates(code, 0, survivors)
        assert required == 3
        assert set(cands) == {1, 2, 3}


class TestDispatch:
    def test_task_conservation(self):
        cluster, store, injector, monitor, dispatcher = make_env()
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        d = dispatcher.dispatch_chunk(report.failed_chunks[0], store.code)
        # 2k tasks: k uploads (one per participant), k downloads.
        assert d.total_uploads == store.code.k
        assert d.total_downloads == store.code.k
        assert d.dest_downloads >= 1
        assert len(d.participants) == store.code.k
        assert len(set(d.participants)) == store.code.k

    def test_destination_not_in_stripe(self):
        cluster, store, injector, monitor, dispatcher = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        dispatcher.begin_phase()
        d = dispatcher.dispatch_chunk(chunk, store.code)
        assert d.destination not in store.stripes[chunk.stripe].nodes()
        assert cluster.node(d.destination).alive

    def test_min_time_first_destination_prefers_idle(self):
        cluster, store, injector, monitor, dispatcher = make_env(num_nodes=14)
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        candidates = injector.candidate_destinations(chunk)
        # Pre-load every candidate but one with phase downloads.
        dispatcher.begin_phase()
        idle = candidates[-1]
        for c in candidates:
            if c != idle:
                dispatcher.load.down[c] += 5
        assert dispatcher.select_destination(chunk) == idle

    def test_loads_accumulate_across_chunks(self):
        cluster, store, injector, monitor, dispatcher = make_env(num_stripes=30)
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        for chunk in report.failed_chunks[:5]:
            dispatcher.dispatch_chunk(chunk, store.code)
        assert sum(dispatcher.load.up.values()) == 5 * store.code.k
        assert sum(dispatcher.load.down.values()) == 5 * store.code.k

    def test_begin_phase_resets(self):
        cluster, store, injector, monitor, dispatcher = make_env()
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        dispatcher.dispatch_chunk(report.failed_chunks[0], store.code)
        dispatcher.begin_phase()
        assert sum(dispatcher.load.up.values()) == 0

    def test_estimated_time_positive_and_sane(self):
        cluster, store, injector, monitor, dispatcher = make_env()
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        d = dispatcher.dispatch_chunk(report.failed_chunks[0], store.code)
        # One chunk over idle 100 MB/s links: at most a few chunk-times.
        assert 0 < d.estimated_time < 10 * CHUNK / mbs(100) * store.code.k

    def test_relay_merging_second_download_adds_no_upload(self):
        # Force relays by making the destination's downlink expensive:
        # many pre-assigned downloads at every possible destination.
        cluster, store, injector, monitor, dispatcher = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        dispatcher.begin_phase()
        for node in injector.candidate_destinations(chunk):
            dispatcher.load.down[node] += 10
        d = dispatcher.dispatch_chunk(chunk, store.code)
        # With all destinations congested, downloads land on sources.
        assert sum(d.source_downloads.values()) >= 1
        # Upload count stays k regardless of how downloads are spread.
        assert d.total_uploads == store.code.k

    def test_butterfly_dispatch_no_relays(self):
        code = ButterflyCode()
        cluster, store, injector, monitor, dispatcher = make_env(code=code, num_nodes=8)
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        d = dispatcher.dispatch_chunk(report.failed_chunks[0], code)
        assert d.source_downloads == {}
        assert d.dest_downloads == len(d.participants)

    def test_io_aware_uses_disk_bandwidth(self):
        code = RSCode(4, 2)
        cluster = Cluster(
            num_nodes=12, num_clients=0, link_bw=mbs(1000), disk_bw=mbs(50),
        )
        store = place_stripes(code, 10, cluster.storage_ids, chunk_size=CHUNK, seed=0)
        injector = FailureInjector(cluster, store)
        monitor = BandwidthMonitor(cluster)
        dispatcher = TaskDispatcher(injector, monitor, chunk_size=CHUNK, io_aware=True)
        report = injector.fail_nodes([0])
        dispatcher.begin_phase()
        d = dispatcher.dispatch_chunk(report.failed_chunks[0], code)
        # Estimates follow the 50 MB/s disks, not the 1000 MB/s links.
        assert d.estimated_time >= CHUNK / mbs(50) * 0.9
