"""Exp#2 (Fig. 13): interference degree (trace slowdown under repair)."""

from conftest import run_sweep

from repro.experiments.exp02_trace_slowdown import SWEEP


def test_exp02_trace_slowdown(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # ChameleonEC introduces less slowdown than the baselines on average.
    traces = {t for t, _ in results}
    cham = sum(results[(t, "ChameleonEC")] for t in traces)
    for baseline in ("CR", "PPR", "ECPipe"):
        assert cham <= sum(results[(t, baseline)] for t in traces) + 0.05 * len(traces)
