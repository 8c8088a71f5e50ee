"""Exp#5 (Fig. 16): coordinator computation time vs nodes and chunks."""

from conftest import run_sweep

from repro.experiments.exp05_computation import SWEEP


def test_exp05_computation(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # Time grows with the chunk count and stays lightweight overall; the
    # paper reports ~0.55 s for 1000 chunks on 500 nodes.
    for nodes in (50, 100, 200, 500):
        assert results[(nodes, 200)] <= results[(nodes, 1000)]
    assert results[(500, 1000)] < 30.0
