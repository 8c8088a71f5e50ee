"""Integration tests for the ChameleonEC coordinator."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import LRCCode, RSCode
from repro.core import ChameleonRepair, ChameleonRepairIO
from repro.errors import SchedulingError
from repro.monitor import BandwidthMonitor

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(code=None, num_nodes=12, num_stripes=20, seed=0, link=mbs(100)):
    code = code if code is not None else RSCode(4, 2)
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=link, disk_bw=mbs(1000)
    )
    store = place_stripes(code, num_stripes, cluster.storage_ids, chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    monitor = BandwidthMonitor(cluster)
    monitor.start()
    return cluster, store, injector, monitor


def run_until_done(cluster, coordinator, step=10.0, limit=50_000.0):
    while not coordinator.done and cluster.sim.now < limit:
        cluster.sim.run(until=cluster.sim.now + step)
    return cluster.sim.now


def make_chameleon(cluster, store, injector, monitor, **kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("slice_size", SLICE)
    kw.setdefault("t_phase", 10.0)
    return ChameleonRepair(cluster, store, injector, monitor, **kw)


class TestBasicRepair:
    def test_full_node_repair_completes(self):
        cluster, store, injector, monitor = make_env()
        report = injector.fail_nodes([0])
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        assert coord.done
        assert len(coord.completed) == len(report.failed_chunks)
        assert coord.meter.throughput > 0
        for chunk in report.failed_chunks:
            assert store.node_of(chunk) != 0

    def test_stripes_keep_spanning_distinct_nodes(self):
        cluster, store, injector, monitor = make_env()
        report = injector.fail_nodes([1])
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        for stripe in store.stripes.values():
            assert len(set(stripe.chunk_nodes)) == store.code.n

    def test_empty_batch(self):
        cluster, store, injector, monitor = make_env()
        done = []
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.on("all_done", lambda c: done.append(1))
        coord.repair([])
        assert coord.done and done == [1]

    def test_double_start_rejected(self):
        cluster, store, injector, monitor = make_env()
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.repair([])
        with pytest.raises(SchedulingError):
            coord.repair([])

    def test_invalid_params(self):
        cluster, store, injector, monitor = make_env()
        with pytest.raises(SchedulingError):
            make_chameleon(cluster, store, injector, monitor, t_phase=0)


class TestPhases:
    def test_multiple_phases_used_for_large_batch(self):
        cluster, store, injector, monitor = make_env(num_stripes=60, link=mbs(25))
        report = injector.fail_nodes([0])
        coord = make_chameleon(cluster, store, injector, monitor, t_phase=2.0)
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        assert coord.done
        assert coord.phase_index > 1

    def test_oversized_first_chunk_still_admitted(self):
        # A chunk whose lone repair exceeds t_phase must not starve.
        cluster, store, injector, monitor = make_env(link=mbs(5))
        report = injector.fail_nodes([0])
        coord = make_chameleon(
            cluster, store, injector, monitor, t_phase=0.5, check_interval=0.25
        )
        coord.repair(report.failed_chunks[:2])
        run_until_done(cluster, coord)
        assert coord.done


class TestMultiNodePolicies:
    def test_two_node_failure_repairs(self):
        cluster, store, injector, monitor = make_env(num_nodes=14, num_stripes=25)
        report = injector.fail_nodes([0, 1])
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        assert coord.done
        assert len(coord.completed) == len(report.failed_chunks)

    def test_priority_orders_doubly_failed_stripes_first(self):
        cluster, store, injector, monitor = make_env(num_nodes=14, num_stripes=30)
        report = injector.fail_nodes([0, 1])
        coord = make_chameleon(cluster, store, injector, monitor)
        from collections import Counter

        per_stripe = Counter(c.stripe for c in report.failed_chunks)
        ordered = coord._order_chunks(list(report.failed_chunks))
        if max(per_stripe.values()) > 1:
            first = ordered[0]
            assert per_stripe[first.stripe] == max(per_stripe.values())


class TestStragglerHandling:
    def _run_with_straggler(self, enable_reordering, enable_retuning, seed=5):
        cluster, store, injector, monitor = make_env(
            num_stripes=30, link=mbs(100), seed=seed
        )
        report = injector.fail_nodes([0])
        # Background hog: saturate one survivor's uplink mid-repair.
        from repro.sim.flows import Flow

        hog_node = cluster.node(1)
        hog = Flow("hog", mbs(100) * 200, (hog_node.uplink,), tag="hog")
        cluster.sim.schedule(1.0, lambda: cluster.flows.start_flow(hog))
        coord = make_chameleon(
            cluster,
            store,
            injector,
            monitor,
            t_phase=8.0,
            check_interval=0.5,
            straggler_threshold=0.5,
            enable_reordering=enable_reordering,
            enable_retuning=enable_retuning,
        )
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        return coord

    def test_retuning_triggers_and_completes(self):
        coord = self._run_with_straggler(enable_reordering=False, enable_retuning=True)
        assert coord.done

    def test_reordering_triggers_and_completes(self):
        coord = self._run_with_straggler(enable_reordering=True, enable_retuning=False)
        assert coord.done

    def test_both_mechanisms_together(self):
        coord = self._run_with_straggler(enable_reordering=True, enable_retuning=True)
        assert coord.done

    def test_etrp_only_mode(self):
        coord = self._run_with_straggler(enable_reordering=False, enable_retuning=False)
        assert coord.done
        assert coord.retunes == 0 and coord.reorders == 0


class TestVariants:
    def test_lrc_repair(self):
        code = LRCCode(4, 2, 2)
        cluster, store, injector, monitor = make_env(code=code, num_nodes=14)
        report = injector.fail_nodes([0])
        coord = make_chameleon(cluster, store, injector, monitor)
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        assert coord.done

    def test_io_variant(self):
        code = RSCode(4, 2)
        cluster = Cluster(
            num_nodes=12, num_clients=0, link_bw=mbs(1000),
            disk_bw=mbs(50),
        )
        store = place_stripes(code, 15, cluster.storage_ids, chunk_size=CHUNK, seed=2)
        injector = FailureInjector(cluster, store)
        monitor = BandwidthMonitor(cluster)
        monitor.start()
        report = injector.fail_nodes([0])
        coord = ChameleonRepairIO(
            cluster, store, injector, monitor,
            chunk_size=CHUNK, slice_size=SLICE, t_phase=10.0,
        )
        assert coord.name == "ChameleonEC-IO"
        coord.repair(report.failed_chunks)
        run_until_done(cluster, coord)
        assert coord.done
