"""Fig. 2: data-loss probability vs repair throughput (analytic model)."""

from conftest import run_sweep

from repro.experiments.figures import FIG2_SWEEP


def test_fig2_reliability(benchmark, bench_scale):
    curve = run_sweep(benchmark, FIG2_SWEEP, bench_scale)
    # Higher repair throughput must strictly lower the loss probability.
    probs = list(curve.values())
    assert all(a > b for a, b in zip(probs, probs[1:]))
