"""End-to-end chaos suite + SLO gate (repro.experiments.exp17_chaos)."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.exp17_chaos import (
    CHUNK_MB,
    HEADERS,
    probe_specs,
    rows,
    run_one,
    verdict_payload,
)
from repro.experiments.harness import write_verdict
from repro.slo import SLOSpec


def _config():
    return ExperimentConfig.scaled(0.05, seed=0, chunk_mb=CHUNK_MB,
                                   trace="YCSB-A")


@pytest.fixture(scope="module")
def chaos_pair():
    """The same seeded chaos run executed twice, for equivalence checks."""
    return run_one(_config()), run_one(_config())


class TestGate:
    def test_gate_passes_under_composed_chaos(self, chaos_pair):
        run, _ = chaos_pair
        assert run.gate.passed, [b.to_dict() for b in run.gate.breaches]
        assert [v.spec.kind for v in run.gate.verdicts] == [
            "foreground_p99_inflation",
            "repair_deadline",
            "detection_latency",
            "zero_loss",
        ]

    def test_every_corruption_detected_and_restored(self, chaos_pair):
        run, _ = chaos_pair
        assert run.injected > 0
        assert run.detected == run.injected
        assert run.restored == run.injected

    def test_zero_loss_observed_zero(self, chaos_pair):
        run, _ = chaos_pair
        assert run.gate.verdict("chaos.zero-loss").observed == 0.0

    def test_per_tag_attribution_saw_all_three_classes(self, chaos_pair):
        run, _ = chaos_pair
        assert run.repair_bw_peak_mbs > 0
        assert run.scrub_bw_peak_mbs > 0
        assert run.foreground_bw_mean_mbs > 0


class TestProbeBreaches:
    def test_tight_probe_always_breaches(self, chaos_pair):
        """The acceptance criterion: an intentionally-tight spec yields
        at least one breach record carrying a virtual timestamp."""
        run, _ = chaos_pair
        assert run.probe.breaches
        for breach in run.probe.breaches:
            assert breach.time > 0.0
            assert breach.observed > breach.threshold

    def test_instant_repair_deadline_is_among_the_breaches(self, chaos_pair):
        run, _ = chaos_pair
        verdict = run.probe.verdict("probe.repair-instant")
        assert not verdict.passed
        (breach,) = verdict.breaches
        # The breach observes the full repair time and lands at the
        # virtual finish timestamp (after the repair ran that long).
        assert breach.observed == pytest.approx(run.repair_time)
        assert breach.time >= breach.observed

    def test_probe_specs_are_valid_specs(self):
        assert all(isinstance(s, SLOSpec) for s in probe_specs())


class TestDeterminism:
    def test_same_seed_same_verdict_document(self, chaos_pair):
        """Two same-seed runs serialise to byte-identical JSON."""
        first, second = chaos_pair
        a = verdict_payload({"YCSB-A": first}, scale=0.05, seed=0)
        b = verdict_payload({"YCSB-A": second}, scale=0.05, seed=0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestBenchDocument:
    def test_write_bench_round_trips(self, chaos_pair, tmp_path):
        run, _ = chaos_pair
        path = tmp_path / "BENCH_chaos.json"
        payload = write_verdict(
            verdict_payload({"YCSB-A": run}, scale=0.05, seed=0), str(path)
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["experiment"] == "exp17_chaos"
        assert on_disk["schema_version"] == 1
        assert on_disk["passed"] is True
        assert on_disk["probe_breaches_total"] > 0
        block = on_disk["traces"]["YCSB-A"]
        assert set(block) == {"passed", "slos", "tight_probe", "summary"}
        breach = block["tight_probe"]["verdicts"][1]["breaches"][0]
        assert breach["time"] > 0.0

    def test_rows_match_headers(self, chaos_pair):
        run, _ = chaos_pair
        (row,) = rows({"YCSB-A": run})
        assert len(row) == len(HEADERS)
        assert row[1] == "PASS"


class TestTestbedSLOWiring:
    def test_evaluate_without_declared_slos_raises(self):
        from repro.api import Testbed

        testbed = Testbed.build(ExperimentConfig.scaled(0.05))
        with pytest.raises(ReproError, match="no SLOs declared"):
            testbed.evaluate_slos()

    def test_set_slos_keeps_declaration_order(self):
        from repro.api import Testbed

        testbed = Testbed.build(ExperimentConfig.scaled(0.05))
        testbed.set_slos(
            SLOSpec("a", "zero_loss", 0.0),
            SLOSpec("b", "repair_deadline", 100.0),
        )
        report = testbed.evaluate_slos()
        assert [v.spec.name for v in report.verdicts] == ["a", "b"]
        assert report.passed
