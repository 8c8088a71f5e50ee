"""Seeded end-to-end battery: corruption under load, nothing slips through.

Each seed runs the full loop on a small testbed: foreground YCSB
traffic, a node failure feeding a live repairer, seeded bit-rot (silent
corruptions + latent sector errors), and a background scrubber whose
detections flow into verified repair. The invariants — every injection
detected, every detection restored, a clean deep checksum audit at the
end — must hold for *every* seed.
"""

import pytest

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultTimeline


def run_seed(seed: int) -> Testbed:
    testbed = Testbed.build(ExperimentConfig.scaled(
        0.05,
        num_nodes=10,
        num_clients=2,
        code="RS(4,2)",
        chunk_mb=8.0,
        num_chunks=6,
        seed=seed,
    ))
    testbed.enable_integrity()
    testbed.start_foreground()
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer("CR")
    # One victim per stripe: with the failed node's chunk that is at
    # most two damaged chunks per RS(4,2) stripe — always repairable.
    timeline = testbed.install_faults(
        FaultTimeline(seed=seed + 23).rot(
            chunks=list(testbed.chunk_store.chunks()),
            horizon=1.5,
            corruptions=3,
            sector_errors=1,
            max_per_stripe=1,
        )
    )
    testbed.start_scrubber(rate_mbs=200.0)
    repairer.repair(report.failed_chunks)

    def settled() -> bool:
        return (
            len(timeline.injected) == len(timeline.events)
            and repairer.done
            and not testbed.ledger.undetected
            and not testbed.injector.quarantined
        )

    assert testbed.run_until(settled, step=0.5), f"seed {seed} never settled"
    testbed.scrubber.stop()
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=0.5)
    return testbed


@pytest.mark.parametrize("seed", range(20))
def test_corruption_under_load_is_always_caught(seed):
    testbed = run_seed(seed)
    summary = testbed.ledger.summary()
    # Node-crash losses can swallow a rot victim before it fires; every
    # injection that actually landed must be detected and restored.
    assert summary["injected"] > 0, seed
    assert summary["detected"] == summary["injected"], seed
    assert summary["restored"] == summary["injected"], seed
    # No detector ever fired on an undamaged chunk.
    assert summary["unexplained"] == 0, seed
    assert all(lat > 0 for lat in testbed.ledger.detection_latencies()), seed
    # Repairs wrote back ground-truth bytes, and the end-of-run deep
    # audit finds no unsound chunk anywhere in the store.
    assert testbed.dataplane.all_verified, seed
    assert not testbed.dataplane.unrepairable, seed
    testbed.dataplane.verify(deep=True)
    # Foreground traffic actually ran alongside (corruption *under load*).
    assert testbed.latency and testbed.latency.count > 0, seed
