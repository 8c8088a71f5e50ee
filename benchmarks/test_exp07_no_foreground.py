"""Exp#7 (Fig. 18): repair throughput with no foreground traffic."""

from conftest import run_sweep

from repro.experiments.exp07_no_foreground import SWEEP


def test_exp07_no_foreground(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    for bw in (1.0, 10.0):
        # Gains persist without interference (bandwidth balancing alone).
        cham = results[(bw, "ChameleonEC")].throughput
        for baseline in ("CR", "PPR", "ECPipe"):
            assert cham >= results[(bw, baseline)].throughput * 0.95
    # Richer links repair faster.
    for algorithm in ("CR", "ChameleonEC"):
        assert results[(10.0, algorithm)].throughput > results[(1.0, algorithm)].throughput
