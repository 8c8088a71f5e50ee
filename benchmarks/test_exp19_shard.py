"""Exp#19: coordinator failover — blast radius shrinks with shard count."""

from conftest import run_sweep

from repro.experiments.exp19_shard_failover import SWEEP


def test_exp19_shard_failover(benchmark, bench_scale):
    cells = run_sweep(benchmark, SWEEP, bench_scale)
    payload = SWEEP.verdict(cells, scale=bench_scale, seed=0)
    # The headline gate: one targeted crash stalls a strictly smaller
    # fraction of the open work as the plane gains shards...
    assert payload["blast_shrinks"], payload["mean_blast_by_shards"]
    # ...without ever double-repairing or losing a chunk, crash or not.
    assert payload["exactly_once"], payload
    assert payload["repair_complete"], payload
    assert payload["passed"]
    for (shards, frac), cell in cells.items():
        baseline = cells[(shards, None)]
        if frac is None:
            # Crash-free N-shard runs complete and stay exactly-once.
            assert baseline["completed"] == baseline["chunks"] > 0, shards
            assert baseline["duplicates"] == 0, shards
            assert sum(baseline["partition_sizes"]) == baseline["chunks"], shards
            continue
        # A targeted crash stalls only the dead shard's open work.
        assert cell["crash_shard"] is not None, (shards, frac)
        assert 0 < cell["stalled"] <= cell["open_at_crash"], (shards, frac)
        if shards == 1:
            assert cell["blast"] == 1.0, (shards, frac)
        else:
            assert cell["blast"] < 1.0, (shards, frac)
        # The dead shard's work was requeued and finished.
        assert cell["requeued"] > 0, (shards, frac)
        assert cell["repair_time_s"] >= baseline["repair_time_s"] * 0.5, (shards, frac)
    # One coordinator, crashed at each swept point: every run repairs
    # the whole batch exactly once, byte-exact, writing nothing off.
    one_shard = {frac: cell for (shards, frac), cell in cells.items() if shards == 1}
    baseline = one_shard.pop(None)
    assert baseline["repair_time_s"] > 0 and baseline["unverified"] == 0
    crashed = sorted(one_shard)
    for frac in crashed:
        cell = one_shard[frac]
        assert cell["duplicates"] == 0, frac
        assert cell["unverified"] == 0, frac
        assert cell["lost"] == 0, frac
        assert cell["completed"] == cell["chunks"], frac
        # Downtime + re-execution can only lengthen the repair.
        assert cell["repair_time_s"] >= baseline["repair_time_s"], frac
    # A later crash leaves less work to re-execute than an earlier one.
    requeues = [one_shard[f]["requeued"] for f in crashed]
    assert requeues == sorted(requeues, reverse=True), requeues
