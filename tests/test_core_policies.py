"""Unit tests for chunk-ordering policies, admission, and re-scheduling
internals of the ChameleonEC coordinator."""

import pytest

from repro.cluster import ChunkId, Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.errors import SchedulingError
from repro.monitor import BandwidthMonitor

CHUNK = 8 * MB
SLICE = 2 * MB


def make_env(num_nodes=14, num_stripes=25, seed=0, link=mbs(100)):
    code = RSCode(4, 2)
    cluster = Cluster(num_nodes=num_nodes, num_clients=1, link_bw=link)
    store = place_stripes(code, num_stripes, cluster.storage_ids, chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    monitor = BandwidthMonitor(cluster, window=1.0)
    monitor.start()
    return cluster, store, injector, monitor


def make_coord(cluster, store, injector, monitor, **kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("slice_size", SLICE)
    kw.setdefault("t_phase", 5.0)
    return ChameleonRepair(cluster, store, injector, monitor, **kw)


class TestOrderingPolicies:
    def test_priority_groups_multi_failure_stripes_first(self):
        cluster, store, injector, monitor = make_env()
        coord = make_coord(cluster, store, injector, monitor)
        chunks = [ChunkId(1, 0), ChunkId(2, 0), ChunkId(2, 1), ChunkId(3, 0)]
        ordered = coord._order_chunks(chunks)
        assert ordered[0].stripe == 2 and ordered[1].stripe == 2

    def test_max_inflight_validation(self):
        cluster, store, injector, monitor = make_env()
        with pytest.raises(SchedulingError):
            make_coord(cluster, store, injector, monitor, concurrency=0)


class TestAdmission:
    def test_inflight_cap_respected(self):
        cluster, store, injector, monitor = make_env(num_stripes=40, link=mbs(20))
        report = injector.fail_nodes([0])
        coord = make_coord(
            cluster, store, injector, monitor, concurrency=3, t_phase=30.0
        )
        coord.repair(report.failed_chunks)
        max_seen = 0
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 0.25)
            max_seen = max(max_seen, len(coord.in_flight))
        assert coord.done
        assert max_seen <= 3

    def test_set_concurrency_retargets_inflight_cap(self):
        cluster, store, injector, monitor = make_env(num_stripes=40, link=mbs(20))
        report = injector.fail_nodes([0])
        coord = make_coord(
            cluster, store, injector, monitor, concurrency=2, t_phase=30.0
        )
        coord.repair(report.failed_chunks)
        before = dict(coord.in_flight)
        coord.set_concurrency(1)
        # Lowering never cancels: the in-flight repairs keep running.
        assert coord.in_flight == before
        coord.set_concurrency(5)
        assert len(coord.in_flight) > len(before)
        with pytest.raises(SchedulingError):
            coord.set_concurrency(0)
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert coord.done
        assert len(coord.completed) == len(report.failed_chunks)

    def test_refill_happens_within_phase(self):
        cluster, store, injector, monitor = make_env(num_stripes=40, link=mbs(50))
        report = injector.fail_nodes([0])
        coord = make_coord(
            cluster, store, injector, monitor, concurrency=2, t_phase=1000.0
        )
        coord.repair(report.failed_chunks)
        while not coord.done and cluster.sim.now < 2000:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert coord.done
        # All chunks repaired in a single phase despite the tiny cap.
        assert coord.phase_index == 1
        assert len(coord.completed) == len(report.failed_chunks)

    def test_phase_budget_defers_chunks(self):
        # Tiny t_phase + slow links: only a prefix fits per phase.
        cluster, store, injector, monitor = make_env(num_stripes=40, link=mbs(10))
        report = injector.fail_nodes([0])
        coord = make_coord(cluster, store, injector, monitor, t_phase=1.0)
        coord.repair(report.failed_chunks)
        while not coord.done and cluster.sim.now < 5000:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert coord.done
        assert coord.phase_index > 1


class TestReplanInternals:
    def test_replan_only_once_per_chunk(self):
        cluster, store, injector, monitor = make_env()
        report = injector.fail_nodes([0])
        coord = make_coord(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks[:2])
        cluster.sim.run(until=cluster.sim.now + 0.01)
        chunk, instance = next(iter(coord.in_flight.items()))
        transfer = next(iter(instance.uploads.values()))
        assert coord._replan(instance, transfer) is True
        new_instance = coord.in_flight.get(chunk)
        if new_instance is not None:
            t2 = next(iter(new_instance.uploads.values()))
            assert coord._replan(new_instance, t2) is False
        while not coord.done and cluster.sim.now < 500:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert coord.done

    def test_replan_skipped_when_mostly_done(self):
        cluster, store, injector, monitor = make_env()
        report = injector.fail_nodes([0])
        coord = make_coord(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks[:1])
        # Run until the chunk is nearly complete, then try to replan.
        chunk, instance = next(iter(coord.in_flight.items()))
        while (
            sum(t.bytes_completed for t in instance.uploads.values())
            < 0.5 * sum(t.size for t in instance.uploads.values())
            and cluster.sim.now < 100
        ):
            cluster.sim.run(until=cluster.sim.now + 0.05)
        transfer = next(iter(instance.uploads.values()))
        assert coord._replan(instance, transfer) is False
        while not coord.done and cluster.sim.now < 500:
            cluster.sim.run(until=cluster.sim.now + 1.0)
        assert coord.done
