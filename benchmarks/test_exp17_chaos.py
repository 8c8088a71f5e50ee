"""Exp#17: SLO-gated chaos suite — all fault families, machine verdicts."""

from conftest import run_sweep

from repro.experiments.exp17_chaos import SWEEP


def test_exp17_chaos(benchmark, bench_scale):
    results = run_sweep(benchmark, SWEEP, bench_scale)
    for trace, run in results.items():
        # The gate holds under the composed fault schedule...
        assert run.gate.passed, (trace, [b.to_dict() for b in run.gate.breaches])
        assert run.detected == run.injected > 0, trace
        assert run.repair_time > 0, trace
        # ...while the unattainable probe set proves breach recording
        # works: every breach carries a virtual timestamp.
        assert run.probe.breaches, trace
        assert all(b.time > 0 for b in run.probe.breaches), trace
        # Per-tag attribution saw repair and scrub traffic move bytes.
        assert run.repair_bw_peak_mbs > 0, trace
        assert run.scrub_bw_peak_mbs > 0, trace
