"""Exp#14: repair completion and tail latency under mid-repair churn."""

from conftest import run_sweep

from repro.experiments.exp14_churn import SWEEP


def test_exp14_churn(benchmark, bench_scale):
    cells = run_sweep(benchmark, SWEEP, bench_scale)
    for (algorithm, churn), cell in cells.items():
        # Within the code's tolerance nothing may be lost, ever.
        assert cell["lost_chunks"] == 0, (algorithm, churn)
        if churn:
            # The crash adds the dead node's chunks to the batch...
            assert cell["adopted_chunks"] > 0, algorithm
            # ...and churn can only extend the repair.
            assert cell["repair_time_s"] >= cells[(algorithm, False)]["repair_time_s"]
    # The full system keeps its edge over the baselines under churn.
    assert (
        cells[("ChameleonEC", True)]["repair_time_s"]
        <= min(cells[(a, True)]["repair_time_s"] for a in ("CR", "PPR", "ECPipe")) * 1.1
    )
