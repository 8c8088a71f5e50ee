"""Exp#17: SLO-gated chaos suite — every fault family at once, verdicted.

PRs 3–6 each exercised one fault family in isolation: churn (exp14),
bit-rot + scrubbing (exp15), coordinator failover (exp19). Production
incidents do not queue up politely, so this experiment composes all of
them — a full-node failure, a mid-repair node crash, transient
stragglers, long bandwidth degradations, rapidly-fluctuating link
capacity (:meth:`~repro.faults.FaultTimeline.fluctuate`), flow
interruptions, silent bit-rot under a live scrubber, and a coordinator
crash with journal-backed failover — under each of the four foreground
traffic families, and asserts declarative SLOs over the run's
virtual-time telemetry instead of eyeballing curves:

* ``chaos.p99`` — no sampling window's foreground P99 may exceed
  ``P99_CEILING`` × the calm warm-up baseline;
* ``chaos.repair-deadline`` — the (twice-interrupted) repair must
  complete within a budget derived from the configured phase length;
* ``chaos.detection`` — every injected corruption must be caught by
  the scrubber within the rot horizon plus a contended scan pass;
* ``chaos.zero-loss`` — no chunk may end the run unrepaired,
  checksum-failing, or unexplained.

A second, *intentionally unattainable* probe spec set (``probe.*``) is
evaluated alongside the gate: its breaches prove the breach-recording
machinery works end-to-end — ``BENCH_chaos.json`` always carries
structured breach records with virtual timestamps, even when the gate
itself is green.

Everything is seeded and driven by the virtual clock, so two runs with
the same ``--scale``/``--seed`` emit byte-identical JSON — which is
what lets CI diff the verdict instead of parsing logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, ratio
from repro.faults.timeline import FaultTimeline, NodeCrash
from repro.slo import SLOReport, SLOSpec
from repro.traffic.traces import TRACE_FACTORIES

#: Chunk size (MB); matches exp15/exp19 — a scrub pass reads the whole
#: store, and 16 MB keeps it bounded at small ``--scale``.
CHUNK_MB = 16.0

#: Silent corruptions / latent sector errors injected per run.
CORRUPTIONS = 3
SECTOR_ERRORS = 1

#: Scrub rate as a fraction of one node's disk-read bandwidth.
SCRUB_INTENSITY = 0.5

#: Sampling windows per configured T_phase (window = t_phase / this).
WINDOWS_PER_PHASE = 4

#: Calm warm-up windows before any fault lands (the P99 baseline).
WARMUP_WINDOWS = 3

#: Gate ceiling: worst-window foreground P99 vs the calm baseline.
#: Chaos runs concentrate repair + scrub + degraded links into single
#: windows, so this is deliberately loose; the probe set owns tightness.
P99_CEILING = 40.0

#: Repair-completion budget in units of T_phase (the repair absorbs a
#: mid-run node crash *and* a coordinator crash + journal recovery).
DEADLINE_PHASES = 30.0

#: Scan-pass slack for the detection bound (fluctuating links slow the
#: scrubber's verification flows well below its paced issue rate).
DETECT_PASS_MARGIN = 4.0

#: Churn mix over the chaos horizon (2 × T_phase).
CRASHES = 1
STRAGGLERS = 2
DEGRADATIONS = 2
INTERRUPTIONS = 1


def gate_specs(
    config: ExperimentConfig,
    *,
    detect_bound: float,
    p99_ceiling: float = P99_CEILING,
) -> list[SLOSpec]:
    """The pass/fail objectives CI asserts (sized from the config)."""
    return [
        SLOSpec(
            "chaos.p99",
            "foreground_p99_inflation",
            p99_ceiling,
            "no window's foreground P99 above the ceiling x calm baseline",
        ),
        SLOSpec(
            "chaos.repair-deadline",
            "repair_deadline",
            DEADLINE_PHASES * config.t_phase,
            "repair completes despite churn + coordinator failover",
        ),
        SLOSpec(
            "chaos.detection",
            "detection_latency",
            detect_bound,
            "scrubber catches every corruption within a contended pass",
        ),
        SLOSpec(
            "chaos.zero-loss",
            "zero_loss",
            0.0,
            "no chunk ends the run lost, checksum-failing, or unexplained",
        ),
    ]


def probe_specs() -> list[SLOSpec]:
    """Unattainably tight probes: guaranteed breach records in the JSON."""
    return [
        SLOSpec(
            "probe.p99-tight",
            "foreground_p99_inflation",
            1.0,
            "probe: any window above the calm baseline breaches",
        ),
        SLOSpec(
            "probe.repair-instant",
            "repair_deadline",
            1e-3,
            "probe: a 1 ms repair deadline no real repair can meet",
        ),
        SLOSpec(
            "probe.detect-instant",
            "detection_latency",
            1e-6,
            "probe: a 1 us detection bound every scrub catch breaches",
        ),
    ]


@dataclass
class ChaosRun:
    """One (traffic family) chaos measurement."""

    trace: str
    #: Control-plane shards (1 = the single-coordinator plane).
    shards: int
    gate: SLOReport
    probe: SLOReport
    repair_time: float
    baseline_p99: float
    worst_window_p99: float
    chunks: int
    injected: int
    detected: int
    restored: int
    windows: int
    series: int
    repair_bw_peak_mbs: float
    scrub_bw_peak_mbs: float
    foreground_bw_mean_mbs: float
    #: Admission-controller stats (exp18); defaults = controller off.
    admission: bool = False
    controller_backoffs: int = 0
    controller_recoveries: int = 0
    controller_min_level: float = 1.0

    def summary(self) -> dict:
        """The JSON ``summary`` block (everything but the verdicts)."""
        return {
            "shards": self.shards,
            "repair_time_s": self.repair_time,
            "baseline_p99_ms": self.baseline_p99 * 1e3,
            "worst_window_p99_ms": self.worst_window_p99 * 1e3,
            "chunks": self.chunks,
            "injected": self.injected,
            "detected": self.detected,
            "restored": self.restored,
            "windows": self.windows,
            "series": self.series,
            "repair_bw_peak_mbs": self.repair_bw_peak_mbs,
            "scrub_bw_peak_mbs": self.scrub_bw_peak_mbs,
            "foreground_bw_mean_mbs": self.foreground_bw_mean_mbs,
        }


def run_one(
    config: ExperimentConfig,
    *,
    p99_ceiling: float = P99_CEILING,
    admission: dict | None = None,
    shards: int = 1,
) -> ChaosRun:
    """One full chaos run for ``config.trace``; see the module docstring.

    ``admission`` (exp18): kwargs for
    :meth:`~repro.api.Testbed.enable_admission_control`, installed right
    after the calm warm-up with the measured ``baseline_p99`` — the same
    anchor the SLO gate multiplies, so the controller's high-water mark
    and the gate's ceiling speak the same inflation units. ``None``
    keeps the controller off (exp17's open-loop behaviour).

    ``shards`` > 1 runs the sharded control plane
    (:meth:`~repro.api.Testbed.start_sharded_repair`) and replaces the
    single whole-plane coordinator crash with *two* targeted shard
    crashes at different times — shard 0 early, shard 1 mid-run — so
    the chaos gate exercises bounded-blast-radius failover under the
    full fault composition. ``shards=1`` is the single-coordinator
    path, unchanged.
    """
    window = config.t_phase / WINDOWS_PER_PHASE
    chaos_horizon = 2.0 * config.t_phase
    rot_horizon = 0.5 * config.t_phase

    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.enable_timeseries(window=window)
    testbed.start_foreground()

    # Calm warm-up: the windows that anchor the P99 inflation ceiling.
    sim = testbed.cluster.sim
    sim.run(until=sim.now + WARMUP_WINDOWS * window)
    baseline_p99 = testbed.latency.p99 if testbed.latency else 0.0

    if admission is not None:
        testbed.enable_admission_control(baseline_p99=baseline_p99, **admission)

    # The headline failure plus the chaos schedule. Both node-killing
    # events are known up front (the churn timeline is seeded), so rot
    # can be restricted to chunks whose payloads survive the run —
    # otherwise a corruption could vanish with its node and the
    # detection SLO would (correctly, but unhelpfully) never resolve.
    report = testbed.fail_nodes(1)
    alive = sorted(set(testbed.cluster.storage_ids)
                   - testbed.cluster.failed_node_ids())
    chaos = FaultTimeline(seed=config.seed + 41).churn(
        nodes=alive,
        horizon=chaos_horizon,
        crashes=CRASHES,
        stragglers=STRAGGLERS,
        degradations=DEGRADATIONS,
        interruptions=INTERRUPTIONS,
        straggler_duration=0.5 * config.t_phase,
    ).fluctuate(
        nodes=alive,
        horizon=chaos_horizon,
        period=chaos_horizon / 4.0,
        amplitude=(0.5, 0.9),
        fraction=0.4,
    )
    doomed = {e.node_id for e in chaos.events if isinstance(e, NodeCrash)}
    safe_chunks = [
        chunk
        for chunk in testbed.chunk_store.chunks()
        if testbed.store.node_of(chunk) not in doomed
    ]
    rot = FaultTimeline(seed=config.seed + 23).rot(
        chunks=safe_chunks,
        horizon=rot_horizon,
        corruptions=CORRUPTIONS,
        sector_errors=SECTOR_ERRORS,
        max_per_stripe=1,
    )
    testbed.install_faults(rot)

    scrub_rate_mbs = SCRUB_INTENSITY * config.disk_bw / 1e6
    testbed.start_scrubber(rate_mbs=scrub_rate_mbs)

    if shards == 1:
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.install_faults(chaos)
        testbed.inject_coordinator_crash(
            0.15 * config.t_phase, recover_after=0.1 * config.t_phase
        )
    else:
        testbed.start_sharded_repair(
            "ChameleonEC", report.failed_chunks, shards=shards
        )
        testbed.install_faults(chaos)
        # Two shards die at different times; each failover touches only
        # its own partition while the sibling keeps repairing.
        testbed.inject_coordinator_crash(
            0.15 * config.t_phase, recover_after=0.1 * config.t_phase, shard=0
        )
        testbed.inject_coordinator_crash(
            0.45 * config.t_phase, recover_after=0.1 * config.t_phase, shard=1
        )

    # Detection bound: rot may land up to rot_horizon after injection
    # starts, then one full (contended) scan pass must catch it.
    store_bytes = len(testbed.store) * testbed.code.n * config.chunk_size
    pass_time = store_bytes / (scrub_rate_mbs * 1e6)
    detect_bound = rot_horizon + DETECT_PASS_MARGIN * pass_time

    def settled() -> bool:
        repairs_done = bool(testbed.repairers) and all(
            r.done for r in testbed.repairers
        )
        ledger_done = not testbed.ledger.undetected and all(
            r.restored_at is not None for r in testbed.ledger.injected
        )
        return repairs_done and ledger_done

    testbed.run_until(settled, step=window)
    testbed.scrubber.stop()
    if testbed.controller is not None:
        testbed.controller.stop()
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=window)
    testbed.timeseries.stop()

    testbed.set_slos(*gate_specs(
        config, detect_bound=detect_bound, p99_ceiling=p99_ceiling
    ))
    gate = testbed.evaluate_slos(baseline_p99=baseline_p99)
    probe = testbed.evaluate_slos(
        specs=probe_specs(), baseline_p99=baseline_p99
    )

    finish_times = [r.meter.finished_at for r in testbed.repairers]
    finished = (
        max(finish_times)
        if finish_times and all(f is not None for f in finish_times)
        else None
    )
    started = min(
        r.meter.started_at
        for r in testbed.repairers
        if r.meter.started_at is not None
    )
    ledger_summary = testbed.ledger.summary()
    ts = testbed.timeseries
    controller = testbed.controller
    return ChaosRun(
        trace=config.trace,
        shards=shards,
        gate=gate,
        probe=probe,
        repair_time=(finished if finished is not None else sim.now) - started,
        baseline_p99=baseline_p99,
        worst_window_p99=ts.get("lat.foreground.p99").max(),
        chunks=len(report.failed_chunks),
        injected=int(ledger_summary["injected"]),
        detected=int(ledger_summary["detected"]),
        restored=int(ledger_summary["restored"]),
        windows=ts.windows_closed,
        series=len(ts.series),
        repair_bw_peak_mbs=ts.get("bw.total.repair").max() / 1e6,
        scrub_bw_peak_mbs=ts.get("bw.total.scrub").max() / 1e6,
        foreground_bw_mean_mbs=ts.get("bw.total.foreground").mean() / 1e6,
        admission=controller is not None,
        controller_backoffs=controller.backoffs if controller else 0,
        controller_recoveries=controller.recoveries if controller else 0,
        controller_min_level=controller.min_level if controller else 1.0,
    )


def grid(scale: float, seed: int):
    """Cells keyed by trace family: one chaos run per traffic family.

    Alongside the per-trace single-coordinator runs, one sharded
    scenario rides the suite: the first trace family re-run with a
    2-shard control plane and two staggered shard crashes, so the gate
    exercises bounded-blast-radius failover under full chaos.
    """
    def config(trace: str) -> ExperimentConfig:
        return ExperimentConfig.scaled(
            scale, seed=seed, chunk_mb=CHUNK_MB, trace=trace
        )

    for trace in TRACE_FACTORIES:
        yield trace, run_one(config(trace))
    first = next(iter(TRACE_FACTORIES))
    yield f"{first} (2 shards)", run_one(config(first), shards=2)


def body(cells: dict[str, ChaosRun], _verdicts: dict) -> dict:
    """``BENCH_chaos.json`` below its header (stable keys, virtual time only)."""
    return {
        "breaches_total": sum(len(r.gate.breaches) for r in cells.values()),
        "probe_breaches_total": sum(
            len(r.probe.breaches) for r in cells.values()
        ),
        "traces": {
            trace: {
                "passed": run.gate.passed,
                "slos": run.gate.to_dict(),
                "tight_probe": run.probe.to_dict(),
                "summary": run.summary(),
            }
            for trace, run in cells.items()
        },
    }


def rows(cells: dict[str, ChaosRun]) -> list[list]:
    """Table rows: the gate verdict and headline stats per trace family."""
    out = []
    for trace, run in cells.items():
        out.append(
            [
                trace,
                "PASS" if run.gate.passed else "FAIL",
                len(run.gate.breaches),
                run.repair_time,
                run.baseline_p99 * 1e3,
                ratio(run.worst_window_p99, run.baseline_p99),
                f"{run.detected}/{run.injected}",
                run.windows,
                run.repair_bw_peak_mbs,
                len(run.probe.breaches),
            ]
        )
    return out


HEADERS = [
    "trace",
    "gate",
    "breaches",
    "repair s",
    "base P99 ms",
    "worst infl",
    "detected",
    "windows",
    "repair pk MB/s",
    "probe breaches",
]

SWEEP = Sweep(
    "exp17_chaos",
    grid,
    [("Exp#17: SLO-gated chaos suite", HEADERS, rows)],
    document="BENCH_chaos.json",
    predicates={
        "gate": lambda cells: all(run.gate.passed for run in cells.values())
    },
    body=body,
    headline=lambda doc: f"{doc['breaches_total']} gate breaches",
)
verdict_payload = SWEEP.verdict
