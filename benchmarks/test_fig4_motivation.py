"""Fig. 4 (Section II-D): interference study — repair time and P99 vs #clients."""

from conftest import run_sweep

from repro.experiments.motivation import SWEEP


def test_fig4_motivation(benchmark, bench_scale):
    repair = run_sweep(benchmark, SWEEP, bench_scale)
    for algo in ("CR", "PPR", "ECPipe"):
        # Interference lengthens the repair: 4 clients vs none.
        assert repair[(4, algo)].repair_time > repair[(0, algo)].repair_time
