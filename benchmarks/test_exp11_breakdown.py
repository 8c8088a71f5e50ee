"""Exp#11 (Fig. 22): breakdown study (ETRP vs ETRP+SAR under a straggler)."""

from conftest import run_sweep

from repro.experiments.exp11_breakdown import SWEEP


def test_exp11_breakdown(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # The full system (ETRP+SAR) at least matches ETRP alone on average.
    offsets = sorted({o for o, _ in results})
    full = sum(results[(o, "ChameleonEC")] for o in offsets)
    etrp = sum(results[(o, "ETRP")] for o in offsets)
    assert full >= etrp * 0.95
    # A later straggler leaves more of the phase unharmed.
    assert results[(offsets[-1], "ChameleonEC")] >= results[(offsets[0], "ChameleonEC")] * 0.8
