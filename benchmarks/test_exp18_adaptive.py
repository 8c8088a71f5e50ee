"""Exp#18: adaptive admission control — closed loop beats open loop."""

import json

from conftest import run_sweep

from repro.experiments.exp18_adaptive import SWEEP, breach_windows, deadline_met, pairs
from repro.experiments.harness import write_verdict


def test_exp18_adaptive(benchmark, bench_scale, tmp_path):
    cells = run_sweep(benchmark, SWEEP, bench_scale)
    payload = SWEEP.verdict(cells, scale=bench_scale, seed=0)
    # The acceptance criterion: strictly fewer P99 breach windows with
    # the controller on, without blowing the repair deadline.
    assert payload["improved"], payload["p99_breach_windows"]
    assert payload["repair_deadline_met"]
    assert payload["passed"]
    for trace, (off, on) in pairs(cells).items():
        # Per-trace, closing the loop never makes interference worse.
        assert breach_windows(on) <= breach_windows(off), trace
        assert deadline_met(on), trace
        # The controller actually acted somewhere in the chaos.
        assert on.admission and not off.admission, trace
    assert any(on.controller_backoffs > 0 for _, on in pairs(cells).values())
    # Same-seed reruns serialise byte-identically (virtual time only).
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    write_verdict(SWEEP.verdict(cells, scale=bench_scale, seed=0), str(path_a))
    write_verdict(SWEEP.verdict(cells, scale=bench_scale, seed=0), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    assert json.loads(path_a.read_text())["experiment"] == "exp18_adaptive"
