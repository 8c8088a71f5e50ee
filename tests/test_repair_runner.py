"""Integration tests: baseline algorithms repairing chunks in the simulator."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import ButterflyCode, LRCCode, RSCode
from repro.errors import SchedulingError
from repro.repair import (
    ConventionalRepair,
    ECPipe,
    PPR,
    PlanInstance,
    RepairBoost,
    RepairRunner,
)

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(code=None, num_nodes=12, num_stripes=20, seed=0, link=mbs(100)):
    code = code if code is not None else RSCode(4, 2)
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=link,
        disk_bw=mbs(1000),
    )
    store = place_stripes(code, num_stripes, cluster.storage_ids, chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


@pytest.mark.parametrize("algo_cls", [ConventionalRepair, PPR, ECPipe])
class TestBaselines:
    def test_full_node_repair_completes(self, algo_cls):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, algo_cls(seed=1),
            chunk_size=CHUNK, slice_size=SLICE, concurrency=4,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert runner.done
        assert len(runner.completed) == len(report.failed_chunks)
        assert runner.meter.throughput > 0
        # Metadata relocated off the failed node.
        for chunk in report.failed_chunks:
            assert store.node_of(chunk) != 0
            assert cluster.node(store.node_of(chunk)).alive

    def test_repaired_stripes_keep_fault_tolerance(self, algo_cls):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([3])
        runner = RepairRunner(
            cluster, store, injector, algo_cls(seed=2),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        for stripe in store.stripes.values():
            assert len(set(stripe.chunk_nodes)) == store.code.n


class TestRunnerMechanics:
    def test_empty_chunk_list(self):
        cluster, store, injector = make_env()
        done = []
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        runner.on("all_done", lambda r: done.append(1))
        runner.repair([])
        assert runner.done and done == [1]

    def test_double_start_rejected(self):
        cluster, store, injector = make_env()
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        runner.repair([])
        with pytest.raises(SchedulingError):
            runner.repair([])

    def test_bad_concurrency_rejected(self):
        cluster, store, injector = make_env()
        with pytest.raises(SchedulingError):
            RepairRunner(
                cluster, store, injector, ConventionalRepair(),
                chunk_size=CHUNK, slice_size=SLICE, concurrency=0,
            )

    def test_same_stripe_chunks_serialised(self):
        # Two failed nodes can hit the same stripe; the runner must not
        # repair both of its chunks concurrently.
        code = RSCode(4, 2)
        cluster, store, injector = make_env(code=code, num_nodes=10, num_stripes=30)
        report = injector.fail_nodes([0, 1])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=3),
            chunk_size=CHUNK, slice_size=SLICE, concurrency=8,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert runner.done
        assert len(runner.completed) == len(report.failed_chunks)

    def test_concurrency_bounds_in_flight(self):
        cluster, store, injector = make_env(num_stripes=40)
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=4),
            chunk_size=CHUNK, slice_size=SLICE, concurrency=2,
        )
        runner.repair(report.failed_chunks)
        max_seen = 0
        t = 0.0
        while not runner.done and t < 10000:
            t = cluster.sim.run(until=t + 0.5)
            max_seen = max(max_seen, len(runner.in_flight))
            if cluster.sim.pending_events() == 0:
                break
        cluster.sim.run()
        assert max_seen <= 2

    def test_set_concurrency_raise_fills_freed_slots(self):
        cluster, store, injector = make_env(num_stripes=40)
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=4),
            chunk_size=CHUNK, slice_size=SLICE, concurrency=1,
        )
        runner.repair(report.failed_chunks)
        assert len(runner.in_flight) == 1
        runner.set_concurrency(4)
        # The raise launches pending chunks immediately, no tick needed.
        assert len(runner.in_flight) == 4
        cluster.sim.run()
        assert runner.done and runner.lost == []

    def test_set_concurrency_lower_paces_without_preempting(self):
        cluster, store, injector = make_env(num_stripes=40)
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=4),
            chunk_size=CHUNK, slice_size=SLICE, concurrency=4,
        )
        runner.repair(report.failed_chunks)
        in_flight = dict(runner.in_flight)
        assert len(in_flight) == 4
        runner.set_concurrency(1)
        # Nothing cancelled: the same four instances are still live ...
        assert runner.in_flight == in_flight
        # ... and once they drain, launches respect the new cap.
        max_seen = 0
        t = cluster.sim.now
        while not runner.done and t < 10000:
            t = cluster.sim.run(until=t + 0.5)
            if len(runner.in_flight) < 4:
                max_seen = max(max_seen, len(runner.in_flight))
            if cluster.sim.pending_events() == 0:
                break
        cluster.sim.run()
        assert runner.done
        assert max_seen <= 1

    def test_set_concurrency_validation(self):
        cluster, store, injector = make_env()
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        with pytest.raises(SchedulingError):
            runner.set_concurrency(0)

    def test_faster_network_repairs_faster(self):
        results = {}
        for bw in (mbs(50), mbs(200)):
            cluster, store, injector = make_env(link=bw, seed=9)
            report = injector.fail_nodes([0])
            runner = RepairRunner(
                cluster, store, injector, ConventionalRepair(seed=1),
                chunk_size=CHUNK, slice_size=SLICE,
            )
            runner.repair(report.failed_chunks)
            cluster.sim.run()
            results[bw] = runner.meter.throughput
        assert results[mbs(200)] > results[mbs(50)]


class TestOtherCodes:
    def test_lrc_repair_uses_local_group(self):
        code = LRCCode(4, 2, 2)
        cluster, store, injector = make_env(code=code, num_nodes=12)
        report = injector.fail_nodes([0])
        data_chunks = [c for c in report.failed_chunks if c.index < code.k]
        if not data_chunks:
            pytest.skip("no data chunk landed on node 0")
        algo = ConventionalRepair(seed=5)
        plan = algo.make_plan(data_chunks[0], code, injector)
        assert len(plan.sources) == code.group_size  # k/l survivors

    def test_butterfly_repair_is_star_with_half_reads(self):
        code = ButterflyCode()
        cluster, store, injector = make_env(code=code, num_nodes=8)
        report = injector.fail_nodes([0])
        chunk = next(c for c in report.failed_chunks if c.index != 3)
        algo = PPR(seed=6)  # would build a tree, but Butterfly forbids it
        plan = algo.make_plan(chunk, code, injector)
        assert all(v == plan.destination for v in plan.parent.values())
        assert plan.read_fraction == 0.5

    def test_butterfly_full_node_repair(self):
        code = ButterflyCode()
        cluster, store, injector = make_env(code=code, num_nodes=8, num_stripes=12)
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=7),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert runner.done


class TestRepairBoost:
    def test_wrapped_name(self):
        assert RepairBoost(ECPipe()).name == "RB+ECPipe"

    def test_balances_destinations(self):
        cluster, store, injector = make_env(num_stripes=40)
        report = injector.fail_nodes([0])
        algo = RepairBoost(ConventionalRepair(), seed=8)
        destinations = []
        for chunk in report.failed_chunks:
            plan = algo.make_plan(chunk, store.code, injector)
            destinations.append(plan.destination)
            store.relocate(chunk, plan.destination)
        # Load spread: no destination hoards the repairs.
        from collections import Counter

        counts = Counter(destinations)
        assert max(counts.values()) - min(counts.values()) <= 3

    def test_boosted_repair_completes(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        runner = RepairRunner(
            cluster, store, injector, RepairBoost(PPR(), seed=9),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        runner.repair(report.failed_chunks)
        cluster.sim.run()
        assert runner.done


class TestPlanInstanceMechanics:
    def test_retune_redirects_edge(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        algo = ECPipe(seed=10)
        plan = algo.make_plan(chunk, store.code, injector)
        instance = PlanInstance(
            cluster, plan, chunk_size=CHUNK, slice_size=SLICE
        )
        instance.start()
        # Pick an edge not pointing at the destination and retune it.
        uploader = next(
            u for u, v in plan.edges() if v != plan.destination
        )
        old = instance.uploads[uploader]
        cluster.sim.run(until=0.05)
        new = instance.retune(old)
        assert plan.parent[uploader] == plan.destination
        assert old.cancelled
        cluster.sim.run()
        assert instance.done
        assert new.done

    def test_pause_resume_roundtrip(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        plan = ConventionalRepair(seed=11).make_plan(chunk, store.code, injector)
        instance = PlanInstance(cluster, plan, chunk_size=CHUNK, slice_size=SLICE)
        instance.start()
        cluster.sim.run(until=0.02)
        for transfer in instance.uploads.values():
            cluster.transfers.pause(transfer)
        free_point = cluster.sim.run(until=5.0)
        assert not instance.done
        instance.resume()
        cluster.sim.run()
        assert instance.done
        assert instance.completed_at > free_point
