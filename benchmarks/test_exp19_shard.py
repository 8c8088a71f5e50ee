"""Exp#19: sharded control plane — blast radius shrinks with shard count."""

from conftest import emit

from repro.experiments.exp19_shard_failover import HEADERS, SWEEP, rows, run_exp19


def test_exp19_shard_failover(benchmark, bench_scale):
    cells = benchmark.pedantic(
        run_exp19, kwargs={"scale": bench_scale}, rounds=1, iterations=1
    )
    emit(benchmark, "Exp#19: shard count vs failover blast radius",
         HEADERS, rows(cells))
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
