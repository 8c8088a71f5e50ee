"""Fig. 6: bandwidth utilisation of most/least-loaded links per algorithm."""

from conftest import run_sweep

from repro.experiments.figures import FIG6_SWEEP


def test_fig6_imbalance(benchmark, bench_scale):
    stats = run_sweep(benchmark, FIG6_SWEEP, bench_scale)
    # R2: utilisation is unbalanced — every algorithm's most-loaded link
    # carries strictly more than its least-loaded one.
    for algorithm in ("CR", "PPR", "ECPipe"):
        for direction in ("up", "down"):
            ml = sum(stats[(algorithm, direction, "ML")])
            ll = sum(stats[(algorithm, direction, "LL")])
            assert ml > ll
