"""Exp#12 (Fig. 23): storage-bottlenecked scenarios (ChameleonEC-IO)."""

from conftest import run_sweep

from repro.experiments.exp12_storage_bottleneck import SWEEP


def test_exp12_storage_bottleneck(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    disks = sorted({d for d, _ in results})
    # Faster disks help everyone.
    assert (
        results[(disks[-1], "ChameleonEC")].throughput
        >= results[(disks[0], "ChameleonEC")].throughput
    )
    # Under the most stringent disks, the IO-aware variant holds up at
    # least as well as plain ChameleonEC.
    tightest = disks[0]
    assert (
        results[(tightest, "ChameleonEC-IO")].throughput
        >= results[(tightest, "ChameleonEC")].throughput * 0.9
    )
