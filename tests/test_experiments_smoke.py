"""Tiny-scale smoke tests for the experiment modules (shape sanity).

Each experiment's benchmark runs the full grid; these smoke tests run
one cell's measurement at scale 0.03 so `pytest tests/` alone still
exercises every harness code path.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_repair_experiment


class TestExperimentSlices:
    def test_exp02_single_cell(self):
        from repro.experiments.harness import run_trace_only, run_trace_with_repair
        from repro.metrics.interference import interference_degree

        config = ExperimentConfig.scaled(0.03, trace="YCSB-A")
        baseline = run_trace_only(config, requests_per_client=150, trace="YCSB-A")
        with_repair, _ = run_trace_with_repair(
            config, "ChameleonEC", requests_per_client=150, trace="YCSB-A"
        )
        degree = interference_degree(with_repair, baseline)
        assert degree > -0.5  # a repair cannot speed the trace up much

    def test_exp07_single_bandwidth(self):
        config = ExperimentConfig.scaled(0.03, link_gbps=10.0)
        for algorithm in ("CR", "ChameleonEC"):
            result = run_repair_experiment(config, algorithm, foreground=False)
            assert result.throughput > 0

    def test_exp09_butterfly_slice(self):
        from repro.experiments.exp09_generality import algorithms_for

        # PPR/ECPipe are skipped for Butterfly (no elastic plans).
        algorithms = algorithms_for("Butterfly(4,2)")
        assert algorithms == ("CR", "ChameleonEC")
        config = ExperimentConfig.scaled(0.03, code="Butterfly(4,2)")
        for algorithm in algorithms:
            assert run_repair_experiment(config, algorithm).throughput > 0

    def test_exp11_single_offset(self):
        from repro.experiments.exp11_breakdown import phase_throughput_with_straggler

        config = ExperimentConfig.scaled(0.03)
        offset = 5.0 * config.t_phase / 20.0
        assert phase_throughput_with_straggler(config, "ETRP", offset) > 0

    def test_fig5_smoke(self):
        from repro.experiments.figures import FIG5_SWEEP

        stats = FIG5_SWEEP.run(scale=0.03)
        assert set(stats) == {"uplink", "downlink"}
        assert all(len(v) == 3 for v in stats.values())

    def test_exp05_tiny_grid(self):
        from repro.experiments.exp05_computation import plan_generation_time

        assert plan_generation_time(30, 20) > 0
