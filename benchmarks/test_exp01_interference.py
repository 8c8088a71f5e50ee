"""Exp#1 (Fig. 12): repair throughput + P99 across four real-world traces."""

from conftest import run_sweep

from repro.experiments.exp01_interference import SWEEP


def test_exp01_interference(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # Headline claim: ChameleonEC beats every baseline on every trace.
    traces = {t for t, _ in results}
    for trace in traces:
        chameleon = results[(trace, "ChameleonEC")].throughput
        for baseline in ("CR", "PPR", "ECPipe"):
            assert chameleon > results[(trace, baseline)].throughput
