"""Exp#9 (Fig. 20): generality across RS, LRC, and Butterfly codes."""

from conftest import run_sweep

from repro.experiments.exp09_generality import SWEEP


def test_exp09_generality(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # ChameleonEC leads for RS codes and LRCs.
    for code in ("RS(8,3)", "RS(10,4)", "LRC(8,2,2)", "LRC(10,2,2)"):
        cham = results[(code, "ChameleonEC")].throughput
        for baseline in ("CR", "PPR", "ECPipe"):
            assert cham > results[(code, baseline)].throughput * 0.95
    # LRCs repair faster than their RS counterparts (fewer sources read).
    assert (
        results[("LRC(10,2,2)", "CR")].throughput
        > results[("RS(10,4)", "CR")].throughput
    )
    # Butterfly: no elastic plan possible, so the gain is small but >= 0.
    butterfly_gain = (
        results[("Butterfly(4,2)", "ChameleonEC")].throughput
        / results[("Butterfly(4,2)", "CR")].throughput
    )
    assert butterfly_gain > 0.9
