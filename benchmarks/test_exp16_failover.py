"""Exp#16: coordinator-crash timing sweep — failover cost, exactly-once."""

from conftest import emit

from repro.experiments.exp16_failover import HEADERS, rows, run_exp16


def test_exp16_failover(benchmark, bench_scale):
    cells = benchmark.pedantic(
        run_exp16, kwargs={"scale": bench_scale}, rounds=1, iterations=1
    )
    emit(benchmark, "Exp#16: coordinator failover (crash timing vs repair inflation)",
         HEADERS, rows(cells))
    baseline = cells[None]
    crashed = sorted(f for f in cells if f is not None)
    assert baseline["repair_time_s"] > 0 and baseline["unverified"] == 0
    for frac in crashed:
        cell = cells[frac]
        # Exactly-once, byte-exact, nothing written off.
        assert cell["duplicates"] == 0, frac
        assert cell["unverified"] == 0, frac
        assert cell["lost"] == 0, frac
        assert cell["completed_before"] + cell["completed_after"] == cell["chunks"], frac
        # Downtime + re-execution can only lengthen the repair.
        assert cell["repair_time_s"] >= baseline["repair_time_s"], frac
    # A later crash leaves less work to re-execute than an earlier one.
    requeues = [cells[f]["requeued"] for f in crashed]
    assert requeues == sorted(requeues, reverse=True), requeues
