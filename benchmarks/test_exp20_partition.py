"""Exp#20: partition-tolerant repair — failure detection beats timeouts."""

from conftest import run_sweep

from repro.experiments.exp20_partition import SWEEP
from repro.experiments.harness import nested


def test_exp20_partition(benchmark, bench_scale):
    cells = run_sweep(benchmark, SWEEP, bench_scale)
    payload = SWEEP.verdict(cells, scale=bench_scale, seed=0)
    # The headline gate: the failure detector strictly beats the
    # timeout-only baseline's p99 at every partition duration...
    assert payload["tail_reduced"], payload["p99_by_duration"]
    # ...every chunk is repaired and verified in every mode...
    assert payload["repair_complete"], payload
    # ...and the fencing scenario stayed exactly-once with zero stale
    # writes accepted into the journal.
    assert payload["exactly_once"], payload["zombie"]
    assert payload["fencing_held"], payload["zombie"]
    assert payload["passed"]
    for duration, per in nested(cells).items():
        baseline, detector = per["baseline"], per["detector"]
        # The baseline pays a tail comparable to the cut itself; the
        # detector suspects within a few heartbeats instead.
        assert detector["p99_s"] < baseline["p99_s"], duration
        assert detector["suspicions"] > 0, duration
        assert detector["suspect_replans"] > 0, duration
        # Suspicion is judged against ground truth: a hard partition
        # must never be classified as a false positive.
        assert detector["false_suspicions"] == 0, duration
    zombie = cells["zombie"]
    assert zombie["fenced_writes"] > 0
    assert zombie["stepdowns"] >= 1
    assert zombie["stale_accepted"] == 0
    assert zombie["double_commits"] == 0
    assert zombie["unverified"] == 0
