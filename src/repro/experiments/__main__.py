"""Command-line runner: ``python -m repro.experiments <exp> [--scale S]``.

Regenerates one paper figure/table and prints its rows, e.g.::

    python -m repro.experiments exp01 --scale 0.1
    python -m repro.experiments fig2
    python -m repro.experiments exp09 --seed 3

Observability (any experiment, no per-experiment code):

    python -m repro.experiments exp01 --trace /tmp/exp01.json   # Perfetto
    python -m repro.experiments exp11 --report                  # text report
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys

from repro.experiments.harness import format_table, write_verdict


#: CLI name -> (module under ``repro.experiments``, its runner, its
#: table list). A table list holds ``(title, headers, rows)`` triples,
#: ``rows`` mapping the runner's result to table rows; it lives beside
#: the ``rows`` functions it names. A module whose ``SWEEP`` names a
#: ``document`` also writes that verdict document (``--out``).
EXPERIMENTS = {
    "fig2": ("figures", "run_fig2", "FIG2_TABLES"),
    "fig4": ("motivation", "run_motivation", "TABLES"),
    "fig5": ("figures", "run_fig5", "FIG5_TABLES"),
    "fig6": ("figures", "run_fig6", "FIG6_TABLES"),
    "exp01": ("exp01_interference", "run_exp01", "TABLES"),
    "exp02": ("exp02_trace_slowdown", "run_exp02", "TABLES"),
    "exp03": ("exp03_tphase", "run_exp03", "TABLES"),
    "exp04": ("exp04_adaptivity", "run_exp04", "TABLES"),
    "exp05": ("exp05_computation", "run_exp05", "TABLES"),
    "exp06": ("exp06_repairboost", "run_exp06", "TABLES"),
    "exp07": ("exp07_no_foreground", "run_exp07", "TABLES"),
    "exp08": ("exp08_multinode", "run_exp08", "TABLES"),
    "exp09": ("exp09_generality", "run_exp09", "TABLES"),
    "exp10": ("exp10_degraded_read", "run_exp10", "TABLES"),
    "exp11": ("exp11_breakdown", "run_exp11", "TABLES"),
    "exp12": ("exp12_storage_bottleneck", "run_exp12", "TABLES"),
    "exp13": ("exp13_network_bw", "run_exp13", "TABLES"),
    "exp14": ("exp14_churn", "run_exp14", "TABLES"),
    "exp15": ("exp15_scrub", "run_exp15", "TABLES"),
    "exp16": ("exp16_failover", "run_exp16", "TABLES"),
    "exp17": ("exp17_chaos", "run_exp17", "TABLES"),
    "exp18": ("exp18_adaptive", "run_exp18", "TABLES"),
    "exp19": ("exp19_shard_failover", "run_exp19", "TABLES"),
    "exp20": ("exp20_partition", "run_exp20", "TABLES"),
}


def run_experiment(
    name: str, scale: float, seed: int, out: str | None = None
) -> list[tuple[str, list, list]]:
    """Run experiment ``name``; returns its ``(title, headers, rows)`` tables."""
    module_name, runner_name, tables_name = EXPERIMENTS[name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    runner = getattr(module, runner_name)
    # Not every runner scales (fig2 is analytic, exp05 times the planner).
    accepted = inspect.signature(runner).parameters
    results = runner(
        **{k: v for k, v in (("scale", scale), ("seed", seed)) if k in accepted}
    )
    verdict = ""
    sweep = getattr(module, "SWEEP", None)
    if sweep is not None and sweep.document is not None:
        out = out or sweep.document
        payload = write_verdict(sweep.verdict(results, scale=scale, seed=seed), out)
        gate = "PASS" if payload["passed"] else "FAIL"
        verdict = f" — {gate} ({sweep.headline(payload)}, verdicts in {out})"
    return [
        (title + verdict, headers, rows(results))
        for title, headers, rows in getattr(module, tables_name)
    ]


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the experiment, print its tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one ChameleonEC paper figure/table.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="which experiment")
    parser.add_argument("--scale", type=float, default=0.08,
                        help="workload scale in (0, 1]; 1.0 = paper size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the whole run "
                             "(open in Perfetto or chrome://tracing)")
    parser.add_argument("--report", action="store_true",
                        help="print a run report (per-phase breakdown, slowest "
                             "tasks, scheduler decision log)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="exp17/exp18/exp19/exp20 only: where to write "
                             "the machine-readable verdict document")
    args = parser.parse_args(argv)

    if args.trace is not None:
        # Fail before the (potentially long) run, not at export time.
        try:
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            parser.error(f"cannot write trace file {args.trace!r}: {exc}")

    observing = args.trace is not None or args.report
    tracer = registry = prev_tracer = prev_registry = None
    if observing:
        from repro.obs import (
            MetricsRegistry,
            Tracer,
            build_report,
            set_registry,
            set_tracer,
            write_chrome_trace,
        )

        tracer = Tracer()
        registry = MetricsRegistry()
        prev_tracer = set_tracer(tracer)
        prev_registry = set_registry(registry)
    try:
        tables = run_experiment(args.experiment, args.scale, args.seed, args.out)
        for title, headers, rows in tables:
            print(format_table(title, headers, rows))
            print()
        if observing:
            if args.trace is not None:
                count = write_chrome_trace(tracer, args.trace)
                print(f"trace: {count} events written to {args.trace}")
            if args.report:
                print(build_report(tracer, registry))
    finally:
        if observing:
            set_tracer(prev_tracer)
            set_registry(prev_registry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
