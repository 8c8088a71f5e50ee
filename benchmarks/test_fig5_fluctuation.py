"""Fig. 5: fluctuation of the bandwidth occupied by foreground traffic."""

from conftest import run_sweep

from repro.experiments.figures import FIG5_SWEEP


def test_fig5_fluctuation(benchmark, bench_scale):
    stats = run_sweep(benchmark, FIG5_SWEEP, bench_scale)
    # The foreground load must actually fluctuate across windows.
    assert stats["uplink"][2] > 0
    assert stats["downlink"][2] > 0
