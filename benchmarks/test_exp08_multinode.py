"""Exp#8 (Fig. 19): multi-node repair (1-3 failed nodes)."""

from conftest import run_sweep

from repro.experiments.exp08_multinode import SWEEP


def test_exp08_multinode(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    for failures in (1, 2, 3):
        cham = results[(failures, "ChameleonEC")].throughput
        for baseline in ("CR", "PPR", "ECPipe"):
            assert cham > results[(failures, baseline)].throughput * 0.95
