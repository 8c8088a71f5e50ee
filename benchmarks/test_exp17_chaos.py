"""Exp#17: SLO-gated chaos suite — all fault families, machine verdicts."""

from conftest import run_sweep

from repro.experiments import exp17_chaos
from repro.experiments.config import ExperimentConfig
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


def test_exp17_dead_helpers_are_not_unexplained_detections():
    """Node 10 dies at 10.05 s while three plans that read from it are
    still finishing: their dead helpers fail the pre-decode check, but a
    lost payload is not a corruption, so chaos.zero-loss stays clean."""
    run = exp17_chaos.run_one(
        ExperimentConfig.scaled(
            0.3, seed=2, chunk_mb=exp17_chaos.CHUNK_MB, trace="Memcached"
        )
    )
    assert run.gate.passed, [b.to_dict() for b in run.gate.breaches]
