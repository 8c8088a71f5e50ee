"""Verified repair: corrupted helpers are rejected, re-planned, retried."""

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
from repro.errors import PlanError
from repro.integrity import IntegrityLedger
from repro.repair import ConventionalRepair, DataPlane, RepairRunner, execute_plan
from repro.repair.dataplane import MAX_INTEGRITY_RETRIES

CHUNK = 8 * MB
SLICE = 2 * MB


def make_env(num_nodes=12, num_stripes=10, seed=0):
    cluster = Cluster(num_nodes=num_nodes, num_clients=1, link_bw=mbs(200))
    store = place_stripes(RSCode(4, 2), num_stripes, cluster.storage_ids,
                          chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    chunk_store = encode_and_load(store, payload_size=64, seed=seed + 1)
    return cluster, store, injector, chunk_store


class FakeRepairer:
    """Captures add_chunks() calls the way a started runner would."""

    running = True
    shard = None

    def __init__(self):
        self.added = []

    def add_chunks(self, chunks):
        self.added.extend(chunks)


def failed_chunk_and_plan(store, injector, seed=1):
    report = injector.fail_nodes([0])
    target = report.failed_chunks[0]
    plan = ConventionalRepair(seed=seed).make_plan(target, store.code, injector)
    return target, plan


class TestRejection:
    def test_corrupt_helper_rejects_quarantines_and_requeues(self):
        cluster, store, injector, cs = make_env()
        ledger = IntegrityLedger(cluster.sim)
        target, plan = failed_chunk_and_plan(store, injector)
        drop_node_chunks(cs, store, 0)
        bad = ChunkId(target.stripe, plan.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(2))
        ledger.record_injection(bad, "corruption")
        repairer = FakeRepairer()
        plane = DataPlane(cs, store, injector, ledger=ledger)

        plane.handle_repaired(target, plan, repairer=repairer)

        assert plane.rejected == [(target, "corrupt_helper")]
        assert not plane.repaired
        assert not cs.has(target)  # no garbage write-back
        assert injector.is_quarantined(bad)
        assert injector.is_quarantined(target)
        # Helper first: the retry sees it rebuilt (or routed around).
        assert repairer.added == [bad, target]
        assert ledger.records[bad].detected_by == "repair"

    def test_quarantine_removes_helper_from_next_plan(self):
        cluster, store, injector, cs = make_env()
        target, plan = failed_chunk_and_plan(store, injector)
        drop_node_chunks(cs, store, 0)
        bad = ChunkId(target.stripe, plan.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(3))
        plane = DataPlane(cs, store, injector)
        plane.handle_repaired(target, plan, repairer=FakeRepairer())
        # RS(4,2) with one chunk lost and one quarantined: exactly k
        # survivors remain, so every fresh plan is corrupt-helper-free.
        retry = ConventionalRepair(seed=9).make_plan(target, store.code, injector)
        assert bad.index not in {s.chunk_index for s in retry.sources}
        plane.handle_repaired(target, retry, repairer=FakeRepairer())
        assert target in plane.repaired
        assert cs.matches_truth(target)
        assert not injector.is_quarantined(target)  # released on write-back

    def test_bad_decode_rejected_without_helper_quarantine(self):
        cluster, store, injector, cs = make_env()
        target, plan = failed_chunk_and_plan(store, injector)
        drop_node_chunks(cs, store, 0)
        # Clean helpers, wrong math: tamper with one coefficient so the
        # decode output cannot match the target's recorded checksum.
        source = plan.sources[0]
        plan.sources[0] = type(source)(
            node_id=source.node_id,
            chunk_index=source.chunk_index,
            coefficient=source.coefficient ^ 1,
        )
        repairer = FakeRepairer()
        plane = DataPlane(cs, store, injector)
        plane.handle_repaired(target, plan, repairer=repairer)
        assert plane.rejected == [(target, "bad_decode")]
        assert not cs.has(target)
        helpers = [ChunkId(target.stripe, s.chunk_index) for s in plan.sources]
        assert not any(injector.is_quarantined(h) for h in helpers)
        assert repairer.added == [target]  # only the target is retried

    def test_retries_exhaust_into_unrepairable(self):
        cluster, store, injector, cs = make_env()
        target, plan = failed_chunk_and_plan(store, injector)
        drop_node_chunks(cs, store, 0)
        bad = ChunkId(target.stripe, plan.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(4))
        repairer = FakeRepairer()
        plane = DataPlane(cs, store, injector)
        for _ in range(MAX_INTEGRITY_RETRIES):
            plane.handle_repaired(target, plan, repairer=repairer)
            assert not plane.unrepairable
        assert repairer.added[:2] == [bad, target]
        requeued = list(repairer.added)
        plane.handle_repaired(target, plan, repairer=repairer)
        assert plane.unrepairable == [target]
        assert repairer.added == requeued  # no further requeue

    def test_deep_verify_catches_undetected_corruption(self):
        cluster, store, injector, cs = make_env()
        plane = DataPlane(cs, store, injector)
        plane.verify(deep=True)  # pristine store: clean
        victim = next(iter(cs.chunks()))
        cs.corrupt(victim, rng=np.random.default_rng(5))
        plane.verify()  # shallow: only audits repaired chunks
        with pytest.raises(PlanError, match="checksum"):
            plane.verify(deep=True)


class TestEndToEndRequeue:
    def test_runner_routes_around_corrupt_helper(self):
        """A corrupted helper in the live repair path: the write-back is
        rejected, both chunks re-enter the batch, and the retry restores
        exact bytes for helper and target alike."""
        cluster, store, injector, cs = make_env(seed=2)
        report = injector.fail_nodes([0])
        target = report.failed_chunks[0]
        # Predict the runner's first plan with a same-seeded probe rng,
        # then corrupt one of the helpers that plan will actually use.
        probe = ConventionalRepair(seed=6).make_plan(target, store.code, injector)
        drop_node_chunks(cs, store, 0)
        bad = ChunkId(target.stripe, probe.sources[0].chunk_index)
        cs.corrupt(bad, rng=np.random.default_rng(7))

        runner = RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=6),
            chunk_size=CHUNK, slice_size=SLICE,
        )
        ledger = IntegrityLedger(cluster.sim)
        ledger.record_injection(bad, "corruption")
        plane = DataPlane(cs, store, injector, ledger=ledger)
        plane.attach(runner)
        runner.repair([target])
        cluster.sim.run()

        assert runner.done
        assert [(target, "corrupt_helper")] == plane.rejected
        assert set(plane.repaired) >= {target, bad}
        assert cs.matches_truth(target) and cs.matches_truth(bad)
        assert not injector.quarantined
        record = ledger.records[bad]
        assert record.detected_by == "repair" and record.restored_at is not None
        plane.verify(deep=True)


class TestExecutorLengths:
    def test_mixed_helper_lengths_raise(self):
        # Regression: execute_plan used to size the output off the first
        # helper and silently mis-decode mixed-length payloads.
        cluster, store, injector, cs = make_env()
        target, plan = failed_chunk_and_plan(store, injector)
        helpers = {
            s.chunk_index: cs.get(ChunkId(target.stripe, s.chunk_index))
            for s in plan.sources
        }
        short = plan.sources[0].chunk_index
        helpers[short] = helpers[short][:-8]
        with pytest.raises(PlanError, match="mixed payload lengths"):
            execute_plan(plan, helpers)
