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
import sys

from repro.experiments import (
    exp01_interference,
    exp02_trace_slowdown,
    exp03_tphase,
    exp04_adaptivity,
    exp05_computation,
    exp06_repairboost,
    exp07_no_foreground,
    exp08_multinode,
    exp09_generality,
    exp10_degraded_read,
    exp11_breakdown,
    exp12_storage_bottleneck,
    exp13_network_bw,
    exp14_churn,
    exp15_scrub,
    exp17_chaos,
    exp18_adaptive,
    exp19_shard_failover,
    exp20_partition,
    figures,
    motivation,
)
from repro.experiments.harness import format_table, write_verdict


#: CLI name -> the :class:`~repro.experiments.harness.Sweep` it runs. A
#: sweep that names a ``document`` also writes that verdict document
#: (``--out``).
EXPERIMENTS = {
    "fig2": figures.FIG2_SWEEP,
    "fig4": motivation.SWEEP,
    "fig5": figures.FIG5_SWEEP,
    "fig6": figures.FIG6_SWEEP,
    "exp01": exp01_interference.SWEEP,
    "exp02": exp02_trace_slowdown.SWEEP,
    "exp03": exp03_tphase.SWEEP,
    "exp04": exp04_adaptivity.SWEEP,
    "exp05": exp05_computation.SWEEP,
    "exp06": exp06_repairboost.SWEEP,
    "exp07": exp07_no_foreground.SWEEP,
    "exp08": exp08_multinode.SWEEP,
    "exp09": exp09_generality.SWEEP,
    "exp10": exp10_degraded_read.SWEEP,
    "exp11": exp11_breakdown.SWEEP,
    "exp12": exp12_storage_bottleneck.SWEEP,
    "exp13": exp13_network_bw.SWEEP,
    "exp14": exp14_churn.SWEEP,
    "exp15": exp15_scrub.SWEEP,
    "exp17": exp17_chaos.SWEEP,
    "exp18": exp18_adaptive.SWEEP,
    "exp19": exp19_shard_failover.SWEEP,
    "exp20": exp20_partition.SWEEP,
}


def run_experiment(
    name: str, scale: float, seed: int, out: str | None = None
) -> list[tuple[str, list, list]]:
    """Run experiment ``name``; returns its ``(title, headers, rows)`` tables."""
    sweep = EXPERIMENTS[name]
    cells = sweep.run(scale, seed)
    verdict = ""
    if sweep.document is not None:
        out = out or sweep.document
        payload = write_verdict(sweep.verdict(cells, scale=scale, seed=seed), out)
        gate = "PASS" if payload["passed"] else "FAIL"
        verdict = f" — {gate} ({sweep.headline(payload)}, verdicts in {out})"
    return [(title + verdict, headers, rows(cells)) for title, headers, rows in sweep.tables]


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
