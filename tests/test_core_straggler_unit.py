"""Unit tests for straggler reactions: detection -> reorder/retune/replan."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.monitor import BandwidthMonitor

CHUNK = 8 * MB
SLICE = 1 * MB


def make_coord(**kw):
    code = RSCode(4, 2)
    cluster = Cluster(num_nodes=12, num_clients=1, link_bw=mbs(100))
    store = place_stripes(code, 20, cluster.storage_ids, chunk_size=CHUNK, seed=3)
    injector = FailureInjector(cluster, store)
    monitor = BandwidthMonitor(cluster, window=0.5)
    monitor.start()
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("slice_size", SLICE)
    kw.setdefault("t_phase", 10.0)
    coord = ChameleonRepair(cluster, store, injector, monitor, **kw)
    return cluster, store, injector, coord


def find_relay_edge(coord):
    """An (instance, transfer) pair whose downloader is a relay."""
    for instance in coord.in_flight.values():
        for uploader, downloader in instance.plan.edges():
            if downloader != instance.plan.destination:
                return instance, instance.uploads[uploader]
    return None, None


class TestRetune:
    def test_retune_redirects_and_tracks(self):
        cluster, store, injector, coord = make_coord(
            enable_reordering=False, enable_retuning=True
        )
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        instance, transfer = find_relay_edge(coord)
        if transfer is None:
            pytest.skip("dispatch produced no relays this seed")
        # Force the straggler path directly.
        from repro.monitor.progress import TrackedTask

        task = TrackedTask(transfer, expected_finish=0.0, chunk_key=instance)
        before = coord.retunes
        coord._handle_straggler(task)
        # Either replanned (barely started) or retuned.
        assert coord.retunes > before or coord.replans > 0
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 5.0)
        assert coord.done

    def test_retune_not_useful_when_upload_done(self):
        cluster, store, injector, coord = make_coord()
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        instance, transfer = find_relay_edge(coord)
        if transfer is None:
            pytest.skip("no relays this seed")
        downloader = instance.downloader_of(transfer)
        relay_upload = instance.uploads[downloader]
        relay_upload.completed_at = cluster.sim.now  # pretend it finished
        assert coord._retune_is_useful(instance, transfer, downloader) is False

    def test_retune_not_useful_when_mostly_transferred(self):
        cluster, store, injector, coord = make_coord()
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        instance, transfer = find_relay_edge(coord)
        if transfer is None:
            pytest.skip("no relays this seed")
        transfer.completed_slices = transfer.num_slices - 1
        downloader = instance.downloader_of(transfer)
        assert coord._retune_is_useful(instance, transfer, downloader) is False


class TestReorder:
    def test_pause_downstream_only(self):
        cluster, store, injector, coord = make_coord(
            enable_reordering=True, enable_retuning=False
        )
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        instance, transfer = find_relay_edge(coord)
        if transfer is None:
            pytest.skip("no relays this seed")
        paused = instance.pause_downstream(transfer)
        # Everything paused sits on the straggler's downstream path.
        uploader = next(n for n, t in instance.uploads.items() if t is transfer)
        path = set()
        node = instance.plan.parent[uploader]
        while node != instance.plan.destination:
            path.add(node)
            node = instance.plan.parent[node]
        for t in paused:
            owner = next(n for n, x in instance.uploads.items() if x is t)
            assert owner in path
        for t in paused:
            cluster.transfers.resume(t)
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 5.0)
        assert coord.done

    def test_wake_resumes_paused_instance(self):
        cluster, store, injector, coord = make_coord()
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        instance = next(iter(coord.in_flight.values()))
        for transfer in instance.uploads.values():
            cluster.transfers.pause(transfer)
        coord._paused.append(instance)
        coord._wake(instance)
        assert instance not in coord._paused
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 5.0)
        assert coord.done


class TestDetectionLoop:
    def test_expectations_tracked_per_transfer(self):
        cluster, store, injector, coord = make_coord()
        report = injector.fail_nodes([0])
        coord.repair(report.failed_chunks[:3])
        cluster.sim.run(until=cluster.sim.now + 0.01)
        tracked = coord.tracker.pending_tasks()
        launched = sum(len(i.uploads) for i in coord.in_flight.values())
        assert len(tracked) == launched
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 5.0)

    def test_counters_start_at_zero(self):
        cluster, store, injector, coord = make_coord()
        assert (coord.retunes, coord.reorders, coord.replans) == (0, 0, 0)
