"""Shared experiment driver: runs a repair against foreground traffic."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.experiments.config import ExperimentConfig
from repro.experiments.driver import MAX_SIM_TIME, run_sim_until
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> harness)
    from repro.api import Testbed

__all__ = [
    "MAX_SIM_TIME",
    "RepairResult",
    "Sweep",
    "WARMUP",
    "format_table",
    "nested",
    "pivot_rows",
    "ratio",
    "run_repair_experiment",
    "run_sim_until",
    "run_trace_only",
    "run_trace_with_repair",
    "write_verdict",
]


#: Seconds of pure foreground before the failure, so the monitor has
#: observed at least one window of it.
WARMUP = 6.0


@dataclass
class RepairResult:
    """Metrics from one repair run."""

    algorithm: str
    trace: str
    repair_time: float
    repaired_bytes: float
    chunks: int
    p99_latency: float = 0.0
    mean_latency: float = 0.0
    foreground_requests: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Average repair throughput in bytes/second."""
        return ratio(self.repaired_bytes, self.repair_time)

    @property
    def throughput_mbs(self) -> float:
        """Average repair throughput in MB/s."""
        return self.throughput / 1e6

    def to_dict(self) -> dict:
        """JSON-serialisable summary (extras are deliberately dropped)."""
        return {
            "algorithm": self.algorithm,
            "trace": self.trace,
            "repair_time_s": self.repair_time,
            "repaired_bytes": self.repaired_bytes,
            "chunks": self.chunks,
            "throughput_mbs": self.throughput_mbs,
            "p99_latency_s": self.p99_latency,
            "mean_latency_s": self.mean_latency,
            "foreground_requests": self.foreground_requests,
        }


def run_repair_experiment(
    config: ExperimentConfig,
    algorithm: str,
    *,
    failed_nodes: int = 1,
    foreground: bool = True,
    trace: str | None = None,
    transition_segments: list[tuple[float, str]] | None = None,
    scenario: "Testbed | None" = None,
) -> RepairResult:
    """One full measurement: foreground + failure + repair to completion.

    ``scenario`` accepts a pre-built :class:`repro.api.Testbed` (the
    keyword keeps its historical name); ``None`` builds one from
    ``config``.

    Foreground latency is always measured over a *fixed* horizon (at
    least three phases), not just the repair window: a fast repair
    concentrates its interference into a short burst, and cutting the
    trace off right at repair completion would charge the fast algorithm
    a window consisting purely of its worst moments.
    """
    from repro.api import Testbed

    scenario = scenario if scenario is not None else Testbed.build(config)
    tracer = get_tracer()
    run_span = tracer.span(
        "experiment.run",
        track="harness",
        algorithm=algorithm,
        trace=(trace or config.trace) if foreground else "none",
        failed_nodes=failed_nodes,
    )
    if foreground:
        scenario.start_foreground(trace, transition_segments=transition_segments)
        scenario.cluster.sim.run(until=scenario.cluster.sim.now + WARMUP)
    report = scenario.fail_nodes(failed_nodes)
    repairer = scenario.make_repairer(algorithm)
    start = scenario.cluster.sim.now
    repairer.repair(report.failed_chunks)
    run_sim_until(scenario.cluster, lambda: repairer.done)
    if foreground:
        horizon = start + 3.0 * config.t_phase
        if scenario.cluster.sim.now < horizon:
            scenario.cluster.sim.run(until=horizon)
        scenario.stop_foreground()
    # The meter records exact start/finish timestamps; the stepped run
    # loop overshoots, so never derive the repair time from sim.now.
    elapsed = repairer.meter.elapsed
    run_span.finish(
        repair_time=elapsed,
        chunks=len(report.failed_chunks),
        sim_events=scenario.cluster.sim.events_dispatched,
    )
    result = RepairResult(
        algorithm=algorithm,
        trace=(trace or config.trace) if foreground else "none",
        repair_time=elapsed if elapsed > 0 else scenario.cluster.sim.now - start,
        repaired_bytes=repairer.meter.repaired_bytes,
        chunks=len(report.failed_chunks),
        p99_latency=scenario.latency.p99 if scenario.latency else 0.0,
        mean_latency=scenario.latency.mean if scenario.latency else 0.0,
        foreground_requests=scenario.latency.count if scenario.latency else 0,
        extras={"meter": repairer.meter, "scenario": scenario, "repairer": repairer},
    )
    return result


def run_trace_only(
    config: ExperimentConfig,
    *,
    requests_per_client: int,
    trace: str | None = None,
) -> float:
    """Trace execution time with no repair running (Exp#2's ``T``)."""
    from repro.api import Testbed

    cfg = config.with_(requests_per_client=requests_per_client)
    scenario = Testbed.build(cfg)
    scenario.start_foreground(trace)
    run_sim_until(scenario.cluster, scenario.foreground_done)
    return max(c.execution_time for c in scenario.clients)


def run_trace_with_repair(
    config: ExperimentConfig,
    algorithm: str,
    *,
    requests_per_client: int,
    trace: str | None = None,
) -> tuple[float, RepairResult]:
    """Trace execution time while a repair runs (Exp#2's ``T*``)."""
    from repro.api import Testbed

    cfg = config.with_(requests_per_client=requests_per_client)
    scenario = Testbed.build(cfg)
    run_span = get_tracer().span(
        "experiment.run", track="harness", algorithm=algorithm,
        trace=trace or cfg.trace,
    )
    scenario.start_foreground(trace)
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + 2.0)
    report = scenario.fail_nodes(1)
    repairer = scenario.make_repairer(algorithm)
    start = scenario.cluster.sim.now
    repairer.repair(report.failed_chunks)
    run_sim_until(
        scenario.cluster, lambda: repairer.done and scenario.foreground_done()
    )
    end = scenario.cluster.sim.now
    run_span.finish(repair_time=end - start, chunks=len(report.failed_chunks))
    result = RepairResult(
        algorithm=algorithm,
        trace=trace or cfg.trace,
        repair_time=end - start,
        repaired_bytes=repairer.meter.repaired_bytes,
        chunks=len(report.failed_chunks),
        p99_latency=scenario.latency.p99,
        mean_latency=scenario.latency.mean,
        foreground_requests=scenario.latency.count,
    )
    trace_time = max(c.execution_time for c in scenario.clients)
    return trace_time, result


def nested(cells: dict) -> dict:
    """``{(outer, inner): cell}`` as ``{outer: {inner: cell}}``, in grid order.

    Keys that are not pairs (a sweep's one-off scenario) are left out.
    """
    out: dict = {}
    for key, cell in cells.items():
        if isinstance(key, tuple):
            outer, inner = key
            out.setdefault(outer, {})[inner] = cell
    return out


def ratio(value: float, baseline: float) -> float:
    """``value / baseline``, or 0.0 against a non-positive baseline."""
    return value / baseline if baseline > 0 else 0.0


def pivot_rows(results: dict, algorithms, value, label) -> list[list]:
    """Table rows from a ``{(row key, algorithm): cell}`` result grid.

    One row per distinct row key, sorted and rendered by ``label``; one
    column per entry of ``algorithms`` that has any cell at all (a
    partial run drops the column rather than printing it empty), each
    cell rendered by ``value`` and ``"-"`` where that one is missing.
    """
    keys = sorted({key for key, _ in results})
    present = [a for a in algorithms if any((key, a) in results for key in keys)]
    return [
        [label(key)]
        + [value(results[(key, a)]) if (key, a) in results else "-" for a in present]
        for key in keys
    ]


def write_verdict(payload: dict, path: str) -> dict:
    """Write a ``BENCH_*.json`` verdict document; returns ``payload``.

    The one place the byte format is decided (sorted keys, two-space
    indent, trailing newline): CI ``cmp``s two runs of each document.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


@dataclass(frozen=True)
class Sweep:
    """One experiment declared once: its grid, tables and verdict document.

    ``grid(scale, seed)`` yields ``(key, cell)`` pairs in measurement
    order; being a generator, it can read the cells it measured before
    (a crash run is timed off its crash-free baseline). Each of
    ``tables`` is a ``(title, headers, rows)`` triple, ``rows`` rendering
    the whole ``{key: cell}`` mapping under ``headers``.

    An experiment with a ``document`` also declares named ``predicates``
    over the cells and a ``body(cells, verdicts)`` that lays out the rest
    of the document, showing whichever predicate values it chooses; the
    document's ``passed`` is the conjunction of every predicate.
    """

    name: str
    grid: Callable[[float, int], Iterator[tuple]]
    tables: list[tuple[str, list[str], Callable[[dict], list[list]]]]
    document: str | None = None
    schema_version: int = 1
    predicates: dict[str, Callable[[dict], bool]] = field(default_factory=dict)
    body: Callable[[dict, dict], dict] | None = None
    headline: Callable[[dict], str] | None = None

    def run(self, scale: float = 0.08, seed: int = 0) -> dict:
        """Measure every cell of the grid: ``{key: cell}`` in grid order."""
        return dict(self.grid(scale, seed))

    def verdict(self, cells: dict, *, scale: float, seed: int) -> dict:
        """The verdict document for ``cells`` (pass it to :func:`write_verdict`)."""
        verdicts = {name: test(cells) for name, test in self.predicates.items()}
        return {
            "experiment": self.name,
            "schema_version": self.schema_version,
            "scale": scale,
            "seed": seed,
            "passed": all(verdicts.values()),
            **self.body(cells, verdicts),
        }


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Fixed-width ASCII table used by every benchmark's output.

    Short rows are padded with "-" so ragged data (e.g. time series of
    different lengths) still renders.
    """
    str_rows = [
        [_fmt(v) for v in row] + ["-"] * max(0, len(headers) - len(row))
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
