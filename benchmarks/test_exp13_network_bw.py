"""Exp#13 (Fig. 24): impact of network bandwidth (with foreground traffic)."""

from conftest import run_sweep

from repro.experiments.exp13_network_bw import ALGORITHMS, SWEEP

PLATEAU_WOBBLE = 0.10


def test_exp13_network_bw(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    # Throughput grows with bandwidth.
    for algorithm in ("CR", "ChameleonEC"):
        assert results[(10.0, algorithm)].throughput > results[(1.0, algorithm)].throughput
    # Fig. 24's shape as EXPERIMENTS.md states it, so a row is held by
    # what it shows and not by its last digit: every algorithm gains from
    # 1 -> 4 Gb/s, none loses more than the plateau's wobble from
    # 4 -> 10 Gb/s, where disks bound the repair and a batch this small
    # quantises into phases (ChameleonEC reads 682.6 -> 633.1 MB/s, -7.3 %,
    # at scale 0.08; within 2 % at 0.05 and 0.12), and ChameleonEC tops
    # every row.
    for algorithm in ALGORITHMS:
        slow, mid, fast = (results[(bw, algorithm)].throughput for bw in (1.0, 4.0, 10.0))
        assert mid > slow, f"{algorithm}: 1 -> 4 Gb/s does not gain"
        assert fast >= (1.0 - PLATEAU_WOBBLE) * mid, f"{algorithm}: 4 -> 10 Gb/s loses"
    for bandwidth in (1.0, 4.0, 10.0):
        row = {a: results[(bandwidth, a)].throughput for a in ALGORITHMS}
        assert max(row, key=row.get) == "ChameleonEC", f"{bandwidth:g} Gb/s: {row}"
    # The relative ChameleonEC gain shrinks as links out-run the disks.
    gain_1 = results[(1.0, "ChameleonEC")].throughput / results[(1.0, "CR")].throughput
    gain_10 = results[(10.0, "ChameleonEC")].throughput / results[(10.0, "CR")].throughput
    assert gain_10 <= gain_1 * 1.3
