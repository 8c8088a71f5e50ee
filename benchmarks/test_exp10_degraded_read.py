"""Exp#10 (Fig. 21): degraded-read throughput under RS(6,3) and RS(10,4)."""

from conftest import run_sweep

from repro.experiments.exp10_degraded_read import SWEEP


def test_exp10_degraded_read(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    for code in ("RS(6,3)", "RS(10,4)"):
        cham = results[(code, "ChameleonEC")]
        for baseline in ("CR", "PPR", "ECPipe"):
            assert cham > results[(code, baseline)] * 0.8
