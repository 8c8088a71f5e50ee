"""Run the repo's benchmark: four seeded workloads, host and simulated clocks.

    python3 benchmarks/perf/run.py --workload all --trace --out DIR
    python3 benchmarks/perf/run.py --workload hot_mix --seconds 1

Every repetition is a fresh child interpreter (this same file with
``--child``), so ``setup_s`` and ``peak_rss_mb`` are what a user starting
``python -m repro.experiments`` pays. End-to-end metrics come from untraced
repetitions; one extra traced repetition gives the per-layer numbers (see
``spans.py``). Every number says which clock it uses: *host* is what the
user waits for, *sim* is what the modelled cluster would do — a change that
only speeds the simulator up must leave every ``sim_*`` value and the
``sim_digest`` identical. README.md has the tables.
"""

import time

_T0 = time.perf_counter()  # the child's first line: setup_s counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fg_ycsb", "hot_mix", "repair_only", "chaos")
DEFAULT_REPS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 170
#: Share of a ``--seconds`` budget spent on untraced repetitions when a
#: traced one (slower, and not budgeted) still has to follow.
TRACED_BUDGET_SHARE = 0.5

#: name -> (unit, clock). Bounds and directions live in BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "sim_throughput_mbs": ("MB/s", "sim"),
    "sim_tail_ms": ("ms", "sim"),
}

#: The two host timings also get a *steady* value, the one the one-line
#: result reports. The box is a shared VM whose neighbours slow everything
#: by 1.2-1.5x, in bursts of seconds and in spells of minutes. Every
#: repetition times ``reference_loop`` on both sides of its timed region;
#: its timings over the mean of those two say what the repetition cost in
#: units of the box's speed at that moment, which takes the spells out, and
#: the median over a run's repetitions drops a burst that hit only one of
#: the two. Times REF_NOMINAL_S, about what the loop takes on this box in a
#: quiet spell, the unit is still seconds and steady is about raw then.
STEADY = ("wall_s", "setup_s")
REF_NOMINAL_S = 0.19

#: Layers a workload is said not to touch; the traced repetition checks
#: that they record zero calls.
UNTOUCHED = {
    "fg_ycsb": ("journal", "integrity", "faults"),
    "hot_mix": ("sim.transfers", "traffic", "core", "repair", "journal", "integrity", "faults"),
    "repair_only": ("traffic", "journal", "integrity", "faults"),
    "chaos": (),
}
MAX_UNATTRIBUTED = 0.05


# -- the child: one repetition ---------------------------------------------

def reference_loop() -> float:
    """Host seconds for a fixed piece of pure-Python work that calls nothing
    in the repo, so no change to the repo can move it: only the box can.
    Dict, list and float work over ~2 MB, the simulator's own diet."""
    began = time.perf_counter()
    table = {}
    rows = [[float(i), i] for i in range(20000)]
    total = 0.0
    for round_ in range(48):
        for row in rows:
            key = (row[1] * 7 + round_) & 8191
            table[key] = row
            total += table[key][0] * 1.0000001
            row[0] = total % 97.0
    return time.perf_counter() - began


def measure(workload: str, seed: int, *, trace: bool = False, setup_only: bool = False,
            tiny: bool = False, rep: int = 0, spans_out: str | None = None) -> dict:
    """Set one workload up, run its timed region once, check it.

    Runs in a fresh interpreter when called through ``--child``; the
    harness tests call it in-process at the ``tiny`` sizes.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import_started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - import_started
    spec = workloads.WORKLOADS[workload]
    sizes = spec.tiny if tiny else spec.sizes
    record = {"workload": workload, "seed": seed, "rep": rep, "sizes": sizes}

    log = tracing = registry = None
    if trace:
        import spans
        from repro.obs.metrics import MetricsRegistry, set_registry

        log = spans.SpanLog(rep=rep)
        tracing = spans.Tracing(log)
        registry = MetricsRegistry()
        set_registry(registry)
    try:
        with tracing if tracing is not None else contextlib.nullcontext():
            setup_started = time.perf_counter()
            state = spec.setup(seed, **sizes)
            setup_ended = time.perf_counter()
            record["setup_s"] = setup_ended - _T0
            record["ref_s"] = [reference_loop()]
            if setup_only:
                return record
            gc.collect()  # start every timed region from the same heap; GC stays on
            mark = log.count if log else 0
            started = time.perf_counter()
            result = spec.run(state)
            wall = time.perf_counter() - started
            record["wall_s"] = wall
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["ref_s"].append(reference_loop())
            if trace:
                record["trace"] = {
                    "timed": log.aggregate(mark, log.count, wall),
                    "setup": log.aggregate(0, mark, setup_ended - setup_started),
                    "import_s": import_s,
                    "py_flow_ops": sum(s.py_flow_ops for s in tracing.schedulers.values()),
                }
    finally:
        if trace:
            set_registry(None)

    outcome = spec.report(state, result)
    if trace:
        snapshot = registry.snapshot()
        record["trace"]["counters"] = {
            name: m["value"] if m["type"] != "histogram" else m["mean"]
            for name, m in snapshot.items()
        }
        if spec.traced_extra is not None:
            outcome.extra.update(spec.traced_extra(state))
        if spans_out:
            log.save(spans_out)
    record.update(
        sim_throughput_mbs=outcome.sim_throughput_mbs,
        sim_tail_ms=outcome.sim_tail_ms,
        sim=outcome.sim,
        sim_digest=outcome.digest,
        extra=outcome.extra,
        ops_attempted=outcome.attempted,
        ops_failed=outcome.failed,
        failures=outcome.failures,
    )
    return record


# -- the parent: children, medians, the result document -----------------------

def run_child(workload: str, seed: int, rep: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), *flags]
    # One process, one thread: numpy must not fan out behind the timer.
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and n of a metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


#: Per-layer count -> the MetricsRegistry metric it is read from
#: (histograms report their mean).
REGISTRY_COUNTS = {
    "sim.engine.events": "sim.events_dispatched",
    "sim.allocator.passes": "alloc.passes",
    "sim.allocator.flows_touched": "alloc.flows_touched",
    "sim.allocator.component_size_mean": "alloc.component_size",
    "sim.flows.started": "flows.started",
    "sim.flows.completed": "flows.completed",
    "sim.flows.cancelled": "flows.cancelled",
    "sim.transfers.completed": "transfers.completed",
    "sim.transfers.failed": "transfers.failed",
    "sim.transfers.stalled": "transfers.stalled",
    "core.retunes": "chameleon.retunes",
    "core.reorders": "chameleon.reorders",
    "core.replans": "chameleon.replans",
    "repair.chunks_repaired": "repairs.completed",
    "repair.retry_attempts": "repair.retry.attempts",
    "repair.chunks_lost": "repair.chunks_lost",
    "journal.appends": "journal.appends",
    "journal.recovery_replayed_records": "journal.recovery.replayed_records",
    "integrity.chunks_scanned": "scrub.chunks_scanned",
    "integrity.detected": "scrub.detected",
    "monitor.samples": "monitor.samples",
}
#: Per-layer metrics a single workload supplies through ``Outcome.extra``
#: (zero on the others), with their units.
WORKLOAD_EXTRAS = {
    "repair.chameleon_leg_wall_s": "s",
    "repair.cr_leg_wall_s": "s",
    "obs.windows_closed": "count",
    "sim.kernel.columnar_wall_s": "s",
    "sim.kernel.timeline_equal": "count",
}
#: faults.* registry counters that tally victims or bytes, not fired events.
FAULT_TALLIES = ("faults.transfers_killed", "faults.interruptions",
                 "faults.corruption.bytes_flipped")


def per_layer(traced: dict, wall_median: float, extra: dict) -> dict:
    """The traced repetition folded into ``{metric: {"value", "unit"}}``."""
    import spans

    trace = traced["trace"]
    timed, setup, count = trace["timed"], trace["setup"], trace["counters"]
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (timed["layers"][layer]["self_s"], "s")
        out[f"{layer}.calls"] = (timed["layers"][layer]["calls"], "count")
    for metric, counter in REGISTRY_COUNTS.items():
        out[metric] = (count.get(counter, 0.0), "count")
    out["sim.engine.events_per_s"] = (out["sim.engine.events"][0] / wall_median, "1/s")
    out["sim.flows.py_flow_ops"] = (trace["py_flow_ops"], "count")
    out["traffic.requests"] = (sum(
        row["calls"] for row in timed["names"] if row["name"] == "TraceGenerator.next_request"
    ), "count")
    out["faults.events_fired"] = (sum(
        value for name, value in count.items()
        if name.startswith("faults.") and name not in FAULT_TALLIES
    ), "count")
    for layer in ("cluster", "api"):  # their spans before the timed region
        out[f"{layer}.setup_self_s"] = (setup["layers"][layer]["self_s"], "s")
    for metric, unit in WORKLOAD_EXTRAS.items():
        out[metric] = (extra.get(metric, 0.0), unit)
    out["setup.import_s"] = (trace["import_s"], "s")
    out["trace.overhead_ratio"] = (traced["wall_s"] / wall_median, "ratio")
    out["trace.spans"] = (timed["spans"], "count")
    out["trace.unattributed_s"] = (timed["unattributed_s"], "s")
    out["repo.src_lines"] = (sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    ), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def summarise(workload: str, seed: int, reps: list[dict],
              traced: dict | None = None) -> dict:
    """Fold one workload's repetitions into its block of the result document.

    A repetition with a failed op is counted in ``ops_failed`` and kept out
    of every median: a run that skipped work is not a fast run.
    """
    good = [r for r in reps if r["ops_failed"] == 0]
    attempted = sum(r["ops_attempted"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    digests = {r["sim_digest"] for r in reps}
    check(len(digests) == 1, f"sim_digest differs between repetitions: {sorted(digests)}")
    block = {
        "seed": seed,
        "sizes": reps[0]["sizes"],
        "sim_digest": reps[0]["sim_digest"],
        "sim": reps[0]["sim"],
    }
    if good:
        block["end_to_end"] = {
            name: {"unit": unit, "clock": clock, **spread([r[name] for r in good])}
            for name, (unit, clock) in END_TO_END.items()
        }
        block["ref_s"] = spread([sample for r in good for sample in r["ref_s"]])
        for name in STEADY:
            block["end_to_end"][name]["steady"] = statistics.median(
                r[name] * REF_NOMINAL_S / statistics.mean(r["ref_s"]) for r in good)
    if traced is not None:
        attempted += traced["ops_attempted"]
        failed += traced["ops_failed"]
        failures += traced["failures"]
        check(traced["sim_digest"] in digests, "traced sim_digest differs from untraced")
        timed = traced["trace"]["timed"]
        check(timed["unattributed_s"] <= MAX_UNATTRIBUTED * timed["wall_s"],
              f"{timed['unattributed_s']:.3f} s of the traced run is outside every span")
        for layer in UNTOUCHED[workload]:
            calls = timed["layers"][layer]["calls"]
            check(calls == 0, f"{layer} recorded {calls} calls on {workload}")
        if good:
            # Untraced medians where every repetition measured the extra.
            extra = {**traced["extra"], **{
                key: statistics.median(r["extra"][key] for r in good)
                for key in good[0]["extra"]}}
            wall = block["end_to_end"]["wall_s"]["median"]
            block["per_layer"] = per_layer(traced, wall, extra)
            block["spans"] = timed["names"][:40]
    block.update(ops_attempted=attempted, ops_failed=failed, failures=failures,
                 correct=failed == 0 and bool(good))
    return block


def manifest(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "reps": args.reps if args.seconds is None else None,
        "seconds": args.seconds,
    }


def print_block(name: str, block: dict) -> None:
    print(f"\n== {name} (seed {block['seed']}, sizes {block['sizes']}) "
          f"ops {block['ops_attempted']} attempted / {block['ops_failed']} failed, "
          f"sim_digest {block['sim_digest'][:16]}")
    for failure in block["failures"]:
        print(f"   FAILED: {failure}")
    for metric, m in block.get("end_to_end", {}).items():
        steady = f" steady {m['steady']:.6g}" if "steady" in m else ""
        print(f"   {metric:<28} {m['median']:>14.6g} {m['unit']:<5} [{m['clock']}] "
              f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n={m['n']}{steady}")
    for metric, m in block.get("per_layer", {}).items():
        value = m["value"] if m["unit"] != "count" else round(m["value"], 3)
        print(f"   {metric:<40} {value:>14.10g} {m['unit']:<5} n=1")


def parent(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package to measure under {SRC}", file=sys.stderr)
        return 2
    # A terminated parent must not leave its child running: as an exception,
    # the signal makes subprocess.run kill and reap the child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out_dir = Path(args.out) if args.out else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    reps: dict[str, list[dict]] = {name: [] for name in names}

    # Every child is a fresh interpreter, so every repetition is also a
    # set-up sample. One discarded warm-up child per workload comes first:
    # it fills __pycache__ and the page cache.
    if args.setup_only:
        setups: dict[str, list[float]] = {name: [] for name in names}
        for name in names:
            run_child(name, args.seed, 0, "--setup-only")
        for probe in range(max(args.reps, MIN_REPS)):
            for name in names:
                child = run_child(name, args.seed, probe, "--setup-only")
                setups[name].append(child["setup_s"])
        for name in names:
            m = spread(setups[name])
            print(f"{name:<12} setup_s {m['median']:.6g} s [host] "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n={m['n']}")
        return 0
    if args.seconds is not None:
        # --seconds is a workload's budget, warm-up included: as many
        # repetitions of the fixed-size work as end inside it.
        budget = args.seconds * (TRACED_BUDGET_SHARE if args.trace else 1.0)
        for name in names:
            began = time.perf_counter()
            run_child(name, args.seed, 0, "--setup-only")
            longest = 0.0
            while (len(reps[name]) < MIN_REPS
                   or time.perf_counter() - began + longest <= budget):
                rep_began = time.perf_counter()
                reps[name].append(run_child(name, args.seed, len(reps[name])))
                longest = max(longest, time.perf_counter() - rep_began)
    else:
        for name in names:
            run_child(name, args.seed, 0)
        for _ in range(max(args.reps, MIN_REPS)):
            for name in names:  # round-robin: machine drift hits all alike
                reps[name].append(run_child(name, args.seed, len(reps[name])))

    document = {"schema": 1, "manifest": manifest(args), "workloads": {}}
    for name in names:
        traced = None
        if args.trace:
            flags = ["--trace", "1"]
            if args.out:
                flags += ["--spans-out", str(out_dir / f"spans_{name}.npz")]
            traced = run_child(name, args.seed, len(reps[name]), *flags)
        block = summarise(name, args.seed, reps[name], traced)
        document["workloads"][name] = block
        print_block(name, block)
    path = out_dir / "BENCH_perf.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")

    correct = all(block["correct"] for block in document["workloads"].values())
    if len(names) == 1:
        block = document["workloads"][names[0]]
        if "end_to_end" not in block:
            return 1  # no repetition succeeded: nothing to report as a timing
        metrics = block["per_layer"] if args.trace else {
            metric: {"value": m.get("steady", m["median"]), "unit": m["unit"]}
            for metric, m in block["end_to_end"].items()
        }
        print(json.dumps({"correct": correct, "attempted": block["ops_attempted"],
                          "failed": block["ops_failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS,
                    help=f"timed repetitions per workload (at least {MIN_REPS})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="a workload's time budget instead of --reps: as many "
                         f"repetitions as fit, at least {MIN_REPS}; sizes never shrink")
    ap.add_argument("--out", default=None,
                    help="directory for BENCH_perf.json (default benchmarks/perf/out); "
                         "when given, the traced repetition also writes its raw spans")
    ap.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                    help="add one traced repetition per workload for the per-layer metrics")
    ap.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure setup_s alone; children stop before the timed region")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--spans-out", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.child:
        return parent(args)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    record = measure(args.workload, args.seed, trace=bool(args.trace),
                     setup_only=args.setup_only, rep=args.rep, spans_out=args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
