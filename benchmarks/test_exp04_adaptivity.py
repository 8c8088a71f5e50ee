"""Exp#4 (Fig. 15): adaptivity under dynamically transitioning traces."""

from conftest import run_sweep

from repro.experiments.exp04_adaptivity import SWEEP


def test_exp04_adaptivity(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    cham = results["ChameleonEC"].throughput
    for baseline in ("CR", "PPR", "ECPipe"):
        assert cham > results[baseline].throughput
