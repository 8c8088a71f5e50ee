"""Exp#15: background-scrub rate sweep — detection latency vs P99 cost."""

from conftest import run_sweep

from repro.experiments.exp15_scrub import SWEEP


def test_exp15_scrub(benchmark, bench_scale):
    cells = run_sweep(benchmark, SWEEP, bench_scale)
    nonzero = sorted(i for i in cells if i > 0)
    baseline = cells[0.0]
    # The window covers a full pass at every swept rate: nothing escapes.
    for intensity in nonzero:
        cell = cells[intensity]
        assert cell["injected"] > 0, intensity
        assert cell["detected"] == cell["injected"], intensity
    # Faster scans catch rot sooner...
    latencies = [cells[i]["mean_detection_latency_s"] for i in nonzero]
    assert latencies == sorted(latencies, reverse=True), latencies
    # ...and scan more chunks in the same window...
    scanned = [cells[i]["chunks_scanned"] for i in nonzero]
    assert scanned == sorted(scanned), scanned
    # ...but the most aggressive scrubber visibly taxes the foreground.
    assert cells[nonzero[-1]]["p99_latency_s"] > baseline["p99_latency_s"]
    # The no-scrub baseline never detects anything.
    assert baseline["detected"] == 0 and baseline["chunks_scanned"] == 0
