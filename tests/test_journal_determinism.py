"""Journal replay determinism battery.

Same seed + same crash time must reproduce the run exactly: identical
post-recovery repair order, identical journal record sequences, and
byte-identical reconstructions (equal to the crash-free run's bytes).
Swept over >= 10 seeds x 3 crash times, per the subsystem's acceptance
criteria.
"""

import pytest

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.sim.resources import REPAIR_TAG

SEEDS = tuple(range(10))
CRASH_TIMES = (0.03, 0.08, 0.15)


def make_testbed(seed):
    testbed = Testbed.build(ExperimentConfig.scaled(
        0.05, num_nodes=12, num_clients=2, code="RS(4,2)",
        chunk_mb=16.0, num_chunks=10, seed=seed,
    ))
    testbed.enable_journal()
    testbed.enable_integrity()
    return testbed


def run_crash_recover(seed, crash_at):
    """One crashed-and-recovered run; returns its observable outcome."""
    testbed = make_testbed(seed)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)
    testbed.inject_coordinator_crash(crash_at)
    testbed.run_until(lambda: repairer.crashed, step=0.01, limit=1000.0)
    replacement = testbed.recover_repairer()
    testbed.run_until(lambda: replacement.done, limit=5000.0)
    payloads = {
        chunk: testbed.chunk_store.get(chunk).tobytes()
        for chunk in report.failed_chunks
    }
    return {
        "failed": list(report.failed_chunks),
        "pre_crash_order": list(repairer.completed),
        "post_recovery_order": list(replacement.completed),
        "requeue": list(replacement.recovery.requeue),
        "records": [
            (r.kind, r.chunk, r.at) for r in testbed.journal.records
        ],
        "payloads": payloads,
        "lost": list(replacement.lost) + list(repairer.lost),
        "leaked": testbed.cluster.transfers.live_transfers(tag=REPAIR_TAG),
        "finish": replacement.meter.finished_at,
    }


def run_crash_free(seed):
    """The reference run: same seed, no crash."""
    testbed = make_testbed(seed)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done, limit=5000.0)
    return {
        chunk: testbed.chunk_store.get(chunk).tobytes()
        for chunk in report.failed_chunks
    }


@pytest.mark.parametrize("crash_at", CRASH_TIMES)
def test_replay_is_deterministic_across_reruns(crash_at):
    """Equal seed + equal crash time => identical runs, for every seed."""
    for seed in SEEDS:
        first = run_crash_recover(seed, crash_at)
        second = run_crash_recover(seed, crash_at)
        assert first["pre_crash_order"] == second["pre_crash_order"], seed
        assert first["post_recovery_order"] == second["post_recovery_order"], seed
        assert first["requeue"] == second["requeue"], seed
        assert first["records"] == second["records"], seed
        assert first["finish"] == second["finish"], seed
        for chunk, payload in first["payloads"].items():
            assert second["payloads"][chunk] == payload, (seed, chunk)


@pytest.mark.parametrize("crash_at", CRASH_TIMES)
def test_recovered_bytes_match_the_crash_free_run(crash_at):
    """Failover changes timing, never bytes: reconstructions are identical
    to what the crash-free run produces, with zero lost or double-repaired
    chunks and no leaked repair flows."""
    for seed in SEEDS:
        outcome = run_crash_recover(seed, crash_at)
        reference = run_crash_free(seed)
        assert not outcome["lost"], seed
        assert not outcome["leaked"], seed
        repaired = set(outcome["pre_crash_order"]) | set(
            outcome["post_recovery_order"]
        )
        assert repaired == set(outcome["failed"]), seed
        assert not set(outcome["pre_crash_order"]) & set(
            outcome["post_recovery_order"]
        ), seed
        assert outcome["payloads"] == reference, seed
