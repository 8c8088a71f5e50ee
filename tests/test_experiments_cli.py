"""Tests for the experiment CLI and row formatters (no heavy simulation)."""

import re
from pathlib import Path

import pytest

from repro.experiments import (
    exp01_interference,
    exp05_computation,
    exp09_generality,
    exp14_churn,
    exp15_scrub,
    exp17_chaos,
    exp18_adaptive,
    exp19_shard_failover,
    exp20_partition,
    figures,
    motivation,
)
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.exp17_chaos import ChaosRun
from repro.experiments.harness import RepairResult, Sweep
from repro.slo import SLOBreach, SLOReport, SLOSpec, SLOVerdict

#: The sweeps that write a verdict document.
VERDICT_MODULES = [exp17_chaos, exp18_adaptive, exp19_shard_failover, exp20_partition]
CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def short_name(module):
    return module.__name__.rsplit(".", 1)[-1]


def chaos_run(p99_breaches=0, *, deadline_met=True, admission=False):
    """A hand-made chaos cell with ``p99_breaches`` breached windows."""
    p99 = SLOVerdict(
        SLOSpec("chaos.p99", "foreground_p99_inflation", 3.0),
        passed=p99_breaches == 0,
        observed=2.0 + p99_breaches,
        breaches=[
            SLOBreach("chaos.p99", 1.0 + w, 4.0, 3.0, window=w)
            for w in range(p99_breaches)
        ],
    )
    deadline = SLOVerdict(
        SLOSpec("chaos.repair-deadline", "repair_deadline", 60.0),
        passed=deadline_met,
        observed=10.0,
    )
    return ChaosRun(
        trace="YCSB-A", shards=1, gate=SLOReport([p99, deadline]),
        probe=SLOReport([deadline]), repair_time=10.0, baseline_p99=0.002,
        worst_window_p99=0.006, chunks=4, injected=2, detected=2, restored=2,
        windows=8, series=5, repair_bw_peak_mbs=100.0, scrub_bw_peak_mbs=10.0,
        foreground_bw_mean_mbs=50.0, admission=admission,
    )


def churn_cell(p99):
    return {"repair_time_s": 4.0, "repaired_chunks": 6, "adopted_chunks": 2,
            "retries": 1, "lost_chunks": 0, "p99_latency_s": p99}


def scrub_cell(p99):
    return {"rate_mbs": 50.0, "p99_latency_s": p99, "injected": 8,
            "detected": 8, "mean_detection_latency_s": 3.0,
            "max_detection_latency_s": 6.0, "chunks_scanned": 40}


def shard_cell(blast, **changes):
    cell = {"partition_sizes": [3, 3], "crash_shard": 0, "repair_time_s": 10.0,
            "time_inflation": 1.2, "blast": blast, "stalled": 2,
            "open_at_crash": 4, "p99_latency_s": 0.002, "chunks": 6,
            "completed": 6, "duplicates": 0, "requeued": 1,
            "proven_committed": 1, "unverified": 0, "lost": 0,
            "journal_records": 30}
    return {**cell, **changes}


def partition_cell(p99, **changes):
    cell = {"p99_s": p99, "repair_time_s": 5.0, "chunks": 4, "completed": 4,
            "lost": 0, "unverified": 0, "suspicions": 1,
            "false_suspicions": 0, "suspect_replans": 1}
    return {**cell, **changes}


def zombie_cell(**changes):
    cell = {"fenced_writes": 3, "stepdowns": 1, "stale_accepted": 0,
            "double_commits": 0, "committed": 4, "chunks": 4,
            "unverified": 0, "repair_time_s": 8.0}
    return {**cell, **changes}


def hand_made_cells(module):
    """Cells for ``module``'s sweep, made by hand; every predicate holds."""
    return {
        exp14_churn: lambda: {("CR", False): churn_cell(0.002),
                              ("CR", True): churn_cell(0.004)},
        exp15_scrub: lambda: {0.0: scrub_cell(0.002), 0.5: scrub_cell(0.003)},
        exp17_chaos: lambda: {"YCSB-A": chaos_run()},
        exp18_adaptive: lambda: {
            ("YCSB-A", "off"): chaos_run(2),
            ("YCSB-A", "on"): chaos_run(1, admission=True),
        },
        exp19_shard_failover: lambda: {
            (1, None): shard_cell(0.0, crash_shard=None),
            (1, 0.15): shard_cell(1.0),
            (2, None): shard_cell(0.0, crash_shard=None),
            (2, 0.15): shard_cell(0.5),
        },
        exp20_partition: lambda: {
            (4.0, "baseline"): partition_cell(5.0),
            (4.0, "detector"): partition_cell(2.0),
            "zombie": zombie_cell(),
        },
    }[module]()


def repair_result(repair_time=2.0, p99=0.004, **extras):
    """A hand-made repair cell: 200 MB in ``repair_time`` seconds."""
    return RepairResult(
        algorithm="CR", trace="YCSB-A", repair_time=repair_time,
        repaired_bytes=200e6, chunks=3, p99_latency=p99, extras=extras,
    )


def full_grid(keys, algorithms, cell):
    """``{(key, algorithm): cell}`` over the whole grid."""
    return {(key, algorithm): cell for key in keys for algorithm in algorithms}


def paper_cells(name):
    """Hand-made cells for the CLI experiment ``name``, one per grid key."""
    per_algorithm = {
        "exp01": (exp01_interference.TRACES, exp01_interference.ALGORITHMS),
        "exp02": (("YCSB-A", "IBM-OS"), exp01_interference.ALGORITHMS),
        "exp07": ((1.0, 10.0), exp01_interference.ALGORITHMS),
        "exp08": ((1, 2), exp01_interference.ALGORITHMS),
        "exp10": (("RS(6,3)", "RS(10,4)"), exp01_interference.ALGORITHMS),
        "exp11": ((0.0, 5.0), ("CR", "PPR", "ECPipe", "ETRP", "ChameleonEC")),
        "exp12": ((250.0, 500.0), ("CR", "ChameleonEC", "ChameleonEC-IO")),
        "exp13": ((1.0, 10.0), exp01_interference.ALGORITHMS),
    }
    if name in per_algorithm:
        value = 0.5 if name in ("exp02", "exp10", "exp11") else repair_result()
        return full_grid(*per_algorithm[name], value)
    series = [(t, 100e6) for t in range(10)]
    return {
        "fig2": lambda: {50: 1e-6, 100: 1e-8},
        "fig4": lambda: {
            **full_grid(motivation.CLIENT_COUNTS, motivation.ALGORITHMS, repair_result()),
            "ycsb_only_p99": 0.008,
        },
        "fig5": lambda: {"uplink": (1.0, 0.5, 1.5), "downlink": (0.8, 0.4, 1.2)},
        "fig6": lambda: {
            (algorithm, direction, which): (1.0, 2.0)
            for algorithm in figures.FIG6_ALGORITHMS
            for direction in ("up", "down")
            for which in ("ML", "LL")
        },
        "exp03": lambda: {10.0: repair_result(), 20.0: repair_result(3.0)},
        "exp04": lambda: {
            algorithm: repair_result(series=series)
            for algorithm in exp01_interference.ALGORITHMS
        },
        "exp05": lambda: full_grid(
            exp05_computation.NODE_COUNTS, exp05_computation.CHUNK_COUNTS, 0.1
        ),
        "exp06": lambda: {
            algorithm: repair_result() for algorithm in ("RB+CR", "RB+PPR", "ChameleonEC")
        },
        "exp09": lambda: {
            **full_grid(("RS(10,4)",), exp09_generality.ALGORITHMS, repair_result()),
            **full_grid(("Butterfly(4,2)",), exp09_generality.algorithms_for("Butterfly(4,2)"),
                        repair_result()),
        },
    }[name]()


def cli_cells(name):
    """Hand-made cells for any registered experiment."""
    module = {
        "exp14": exp14_churn, "exp15": exp15_scrub, "exp17": exp17_chaos,
        "exp18": exp18_adaptive, "exp19": exp19_shard_failover, "exp20": exp20_partition,
    }.get(name)
    return hand_made_cells(module) if module else paper_cells(name)


#: (module, cells replaced in its hand-made set, predicates that then fail)
FAILING_CASES = [
    (exp17_chaos, {"YCSB-A": chaos_run(deadline_met=False)}, {"gate"}),
    # More breach windows with the controller on: worse, so not better.
    (exp18_adaptive, {("YCSB-A", "on"): chaos_run(3)},
     {"no_worse", "improved"}),
    # on == off breaches no more windows, but does not improve.
    (exp18_adaptive, {("YCSB-A", "on"): chaos_run(2)}, {"improved"}),
    (exp18_adaptive, {("YCSB-A", "on"): chaos_run(1, deadline_met=False)},
     {"repair_deadline_met"}),
    (exp19_shard_failover, {(2, 0.15): shard_cell(1.0)}, {"blast_shrinks"}),
    (exp19_shard_failover, {(2, 0.15): shard_cell(0.5, duplicates=1)},
     {"exactly_once"}),
    (exp19_shard_failover, {(2, 0.15): shard_cell(0.5, lost=1)},
     {"repair_complete"}),
    (exp20_partition, {(4.0, "detector"): partition_cell(5.0)},
     {"tail_reduced"}),
    (exp20_partition, {"zombie": zombie_cell(unverified=1)},
     {"repair_complete"}),
    (exp20_partition, {"zombie": zombie_cell(double_commits=1)},
     {"exactly_once"}),
    (exp20_partition, {"zombie": zombie_cell(fenced_writes=0)},
     {"fencing_held"}),
]


class TestCLI:
    def test_all_experiments_registered(self):
        expected = {f"exp{i:02d}" for i in range(1, 21) if i != 16} | {
            "fig2",
            "fig4",
            "fig5",
            "fig6",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_experiment_is_one_named_sweep(self):
        assert all(isinstance(sweep, Sweep) for sweep in EXPERIMENTS.values())
        names = [sweep.name for sweep in EXPERIMENTS.values()]
        assert len(set(names)) == len(names)

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Pr_dl" in out
        assert "50 MB/s" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["exp99"])

    def test_scale_argument_parsed(self, capsys):
        # fig2 ignores scale but exercises argument plumbing cheaply.
        assert main(["fig2", "--scale", "0.5", "--seed", "3"]) == 0


class TestRowFormatters:
    def test_exp01_rows(self):
        from repro.experiments.exp01_interference import rows_p99, rows_throughput

        fake = {
            ("YCSB-A", "CR"): RepairResult(
                algorithm="CR", trace="YCSB-A", repair_time=2.0,
                repaired_bytes=200e6, chunks=3, p99_latency=0.004,
            ),
            ("YCSB-A", "ChameleonEC"): RepairResult(
                algorithm="ChameleonEC", trace="YCSB-A", repair_time=1.0,
                repaired_bytes=200e6, chunks=3, p99_latency=0.003,
            ),
        }
        tp = rows_throughput(fake)
        assert tp == [["YCSB-A", 100.0, 200.0]]
        p99 = rows_p99(fake)
        assert p99 == [["YCSB-A", 4.0, 3.0]]

    def test_exp02_rows(self):
        from repro.experiments.exp02_trace_slowdown import rows

        fake = {("YCSB-A", "CR"): 0.5, ("YCSB-A", "ChameleonEC"): 0.2}
        assert rows(fake) == [["YCSB-A", 0.5, 0.2]]

    def test_exp05_rows(self):
        from repro.experiments.exp05_computation import rows

        fake = {(50, 200): 0.1, (50, 600): 0.2, (100, 200): 0.15, (100, 600): 0.3}
        out = rows(fake)
        assert out[0] == ["n=50", 0.1, 0.2]
        assert out[1] == ["n=100", 0.15, 0.3]

    def test_exp07_rows_missing_cells(self):
        from repro.experiments.exp07_no_foreground import rows

        fake = {
            (1.0, "CR"): RepairResult(
                algorithm="CR", trace="none", repair_time=1.0,
                repaired_bytes=50e6, chunks=1,
            )
        }
        out = rows(fake)
        assert out[0][0] == "1 Gb/s"
        assert out[0][1] == 50.0

    def test_exp09_rows_dash_where_butterfly_has_no_elastic_plan(self):
        rows = exp09_generality.rows(paper_cells("exp09"))
        assert rows[0] == ["Butterfly(4,2)", 100.0, "-", "-", 100.0]
        assert rows[1] == ["RS(10,4)", 100.0, 100.0, 100.0, 100.0]

    def test_fig2_rows(self):
        assert figures.fig2_rows({50.0: 1e-6}) == [["50 MB/s", 1e-6]]

    def test_motivation_rows(self):
        fake = {
            (0, "CR"): RepairResult(
                algorithm="CR", trace="none", repair_time=3.0,
                repaired_bytes=10e6, chunks=1,
            ),
            (4, "CR"): RepairResult(
                algorithm="CR", trace="YCSB-A", repair_time=5.0,
                repaired_bytes=10e6, chunks=1, p99_latency=0.01,
            ),
            "ycsb_only_p99": 0.008,
        }
        rt = motivation.rows_repair_time(fake)
        assert rt[0][0] == "C=0" and rt[0][1] == 3.0
        p99 = motivation.rows_p99(fake)
        assert p99[0] == ["YCSB-Only", 8.0, "-", "-"]
        assert p99[1:] == [["C=4", 10.0]]

    @pytest.mark.parametrize(
        "name", sorted(EXPERIMENTS), ids=lambda name: EXPERIMENTS[name].name
    )
    def test_sweep_rows_match_headers(self, name):
        cells = cli_cells(name)
        for _, headers, rows in EXPERIMENTS[name].tables:
            out = rows(cells)
            assert out
            assert all(len(row) == len(headers) for row in out)

    def test_sweep_rows_derive_inflation_from_the_baseline_cell(self):
        (row,) = exp14_churn.rows(hand_made_cells(exp14_churn))
        assert row[0] == "CR" and row[-1] == 2.0
        baseline, faulted = exp15_scrub.rows(hand_made_cells(exp15_scrub))
        assert baseline[3] == 1.0 and faulted[3] == 1.5 and faulted[4] == "8/8"
        base, crash = exp19_shard_failover.rows(hand_made_cells(exp19_shard_failover))[:2]
        assert base[:3] == [1, "none", "-"] and crash[:3] == [1, 0.15, 0]
        assert crash[7:9] == [2.0, "6/6"]
        assert exp20_partition.rows(hand_made_cells(exp20_partition))[-1][1] == "zombie"


class TestSweepPredicates:
    @pytest.mark.parametrize("module", VERDICT_MODULES, ids=short_name)
    def test_hand_made_cells_pass(self, module):
        doc = module.SWEEP.verdict(hand_made_cells(module), scale=0.05, seed=0)
        assert doc["passed"] is True

    @pytest.mark.parametrize("module, changes, failing", FAILING_CASES, ids=[
        f"{short_name(module)}-{'+'.join(sorted(failing))}"
        for module, _, failing in FAILING_CASES
    ])
    def test_a_failing_predicate_fails_the_document(self, module, changes, failing):
        cells = hand_made_cells(module) | changes
        sweep = module.SWEEP
        verdicts = {name: test(cells) for name, test in sweep.predicates.items()}
        assert verdicts == {name: name not in failing for name in verdicts}
        doc = sweep.verdict(cells, scale=0.05, seed=0)
        assert doc["passed"] is False
        if module is not exp17_chaos:
            assert {name: doc[name] for name in verdicts} == verdicts

    def test_chaos_document_shows_no_predicate_but_passed(self):
        doc = exp17_chaos.verdict_payload(
            hand_made_cells(exp17_chaos), scale=0.05, seed=0)
        assert set(doc) == {
            "experiment", "schema_version", "scale", "seed", "passed",
            "breaches_total", "probe_breaches_total", "traces",
        }


class TestVerdictGate:
    def documents(self):
        """{experiment: document stem} for every sweep that writes one."""
        return {
            name: Path(sweep.document).stem
            for name, sweep in EXPERIMENTS.items()
            if sweep.document is not None
        }

    def test_ci_matrix_lists_every_verdict_document(self):
        matrix = re.findall(
            r"\{exp: (\w+), bench_test: \S+, artifact: (\w+)\}",
            CI_WORKFLOW.read_text(encoding="utf-8"),
        )
        assert dict(matrix) == self.documents()
        assert len(matrix) == len(dict(matrix))

    def test_out_help_names_every_verdict_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        out_help = help_text[help_text.rindex("--out PATH"):]
        assert set(re.findall(r"exp\d\d", out_help)) == set(self.documents())


class TestPublicAPI:
    def test_top_level_imports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        import repro

        assert repro.__version__
