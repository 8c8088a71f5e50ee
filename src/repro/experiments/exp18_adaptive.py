"""Exp#18: adaptive admission control, on vs off, under exp17's chaos.

Exp#17 proved the telemetry + SLO machinery; nothing *consumed* it at
runtime. This experiment closes the loop: the same seeded chaos
schedule (node failure, churn crash, stragglers, fluctuating links,
bit-rot under a live scrubber, coordinator failover) runs twice per
traffic family —

* **controller off** — the open-loop exp17 behaviour: scrub rate and
  repair parallelism stay at their configured values no matter what
  the foreground latency series does;
* **controller on** — :class:`~repro.control.AdmissionController`
  rides the sampling clock and AIMD-throttles both actuators whenever
  a closed window's foreground P99 inflates past the high-water mark.

The headline comparison is the number of **breach windows** of a
deliberately tight ``foreground_p99_inflation`` SLO (``TIGHT_CEILING``,
well inside the inflation the chaos schedule provokes open-loop),
under the constraint that throttling must not blow the exp17 repair
deadline — repair deadlines are SLOs too, which is exactly why the
controller has a floor. ``BENCH_adaptive.json`` carries both runs'
verdicts and is byte-identical across same-seed runs (virtual time
only, sorted keys), so CI diffs the document instead of parsing logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control import AIMDPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.exp17_chaos import CHUNK_MB, ChaosRun, run_one
from repro.experiments.harness import write_verdict
from repro.slo import SLOReport
from repro.traffic.traces import TRACE_FACTORIES

#: The tight per-window inflation ceiling both runs are judged against.
#: Exp17's open-loop chaos runs inflate 3-6x, so this ceiling is
#: breached without the controller — the gap is what adaptivity closes.
#: It cannot sit below ~2.5x: fluctuating-link windows inflate the
#: foreground that far with *zero* background traffic (the chaos
#: schedule degrades links under pure foreground load), and stretching
#: a throttled repair across more of those windows only adds breaches.
TIGHT_CEILING = 3.0

#: Controller thresholds, in the same inflation units as the ceiling.
#: The high-water mark sits at half the ceiling: by the time a window
#: is hot enough to *breach*, an earlier merely-warm window has already
#: halved background intensity — backing off at the ceiling itself
#: would always be one window too late. Recovery is slow (8 calm
#: windows to return to full intensity) so one quiet window between
#: fault phases does not restore full pressure, and the floor keeps a
#: quarter of the intensity so repair still meets its deadline SLO.
POLICY = AIMDPolicy(
    high_water=0.5 * TIGHT_CEILING,
    low_water=0.37 * TIGHT_CEILING,
    backoff=0.5,
    recover=0.125,
    floor=0.25,
)


def _verdict(gate: SLOReport, name: str):
    for verdict in gate.verdicts:
        if verdict.spec.name == name:
            return verdict
    raise KeyError(name)


@dataclass
class AdaptiveRun:
    """One traffic family's controller-off vs controller-on pair."""

    trace: str
    off: ChaosRun
    on: ChaosRun

    @property
    def off_breach_windows(self) -> int:
        return len(_verdict(self.off.gate, "chaos.p99").breaches)

    @property
    def on_breach_windows(self) -> int:
        return len(_verdict(self.on.gate, "chaos.p99").breaches)

    @property
    def deadline_s(self) -> float:
        return _verdict(self.on.gate, "chaos.repair-deadline").spec.threshold

    @property
    def on_deadline_met(self) -> bool:
        return _verdict(self.on.gate, "chaos.repair-deadline").passed

    @property
    def off_deadline_met(self) -> bool:
        return _verdict(self.off.gate, "chaos.repair-deadline").passed

    def block(self) -> dict:
        """The per-trace JSON block of ``BENCH_adaptive.json``."""
        return {
            "baseline_p99_ms": self.off.baseline_p99 * 1e3,
            "p99_breach_windows": {
                "controller_off": self.off_breach_windows,
                "controller_on": self.on_breach_windows,
            },
            "worst_window_inflation": {
                "controller_off": _verdict(self.off.gate, "chaos.p99").observed,
                "controller_on": _verdict(self.on.gate, "chaos.p99").observed,
            },
            "repair_time_s": {
                "controller_off": self.off.repair_time,
                "controller_on": self.on.repair_time,
            },
            "repair_deadline_s": self.deadline_s,
            "repair_deadline_met": {
                "controller_off": self.off_deadline_met,
                "controller_on": self.on_deadline_met,
            },
            "controller": {
                "backoffs": self.on.controller_backoffs,
                "recoveries": self.on.controller_recoveries,
                "min_level": self.on.controller_min_level,
            },
            "slos": {
                "controller_off": self.off.gate.to_dict(),
                "controller_on": self.on.gate.to_dict(),
            },
        }


def run_pair(config: ExperimentConfig) -> AdaptiveRun:
    """The same chaos schedule, open-loop then closed-loop."""
    off = run_one(config, p99_ceiling=TIGHT_CEILING)
    on = run_one(
        config, p99_ceiling=TIGHT_CEILING, admission={"policy": POLICY}
    )
    return AdaptiveRun(trace=config.trace, off=off, on=on)


def run_exp18(scale: float = 0.08, seed: int = 0,
              traces: tuple[str, ...] | None = None) -> dict[str, AdaptiveRun]:
    """{trace family: off/on pair} across all traffic families."""
    chosen = tuple(TRACE_FACTORIES) if traces is None else traces
    return {
        trace: run_pair(
            ExperimentConfig.scaled(
                scale, seed=seed, chunk_mb=CHUNK_MB, trace=trace
            )
        )
        for trace in chosen
    }


def verdict_payload(results: dict[str, AdaptiveRun], *,
                    scale: float, seed: int) -> dict:
    """The ``BENCH_adaptive.json`` document (stable keys, virtual time)."""
    off_total = sum(r.off_breach_windows for r in results.values())
    on_total = sum(r.on_breach_windows for r in results.values())
    deadline_met = all(r.on_deadline_met for r in results.values())
    return {
        "experiment": "exp18_adaptive",
        "schema_version": 1,
        "scale": scale,
        "seed": seed,
        "tight_ceiling": TIGHT_CEILING,
        "p99_breach_windows": {
            "controller_off": off_total,
            "controller_on": on_total,
        },
        # CI's gate: closing the loop must never make interference worse,
        # and the acceptance bar is a strict improvement.
        "no_worse": on_total <= off_total,
        "improved": on_total < off_total,
        "repair_deadline_met": deadline_met,
        "passed": on_total < off_total and deadline_met,
        "traces": {
            trace: run.block() for trace, run in results.items()
        },
    }


def write_bench(results: dict[str, AdaptiveRun], path: str, *,
                scale: float, seed: int) -> dict:
    """Serialise the verdict document; returns the payload written."""
    return write_verdict(verdict_payload(results, scale=scale, seed=seed), path)


def rows(results: dict[str, AdaptiveRun]) -> list[list]:
    """Table rows: breach windows and repair time, off vs on."""
    out = []
    for trace, run in results.items():
        out.append(
            [
                trace,
                run.off_breach_windows,
                run.on_breach_windows,
                _verdict(run.off.gate, "chaos.p99").observed,
                _verdict(run.on.gate, "chaos.p99").observed,
                run.off.repair_time,
                run.on.repair_time,
                "yes" if run.on_deadline_met else "NO",
                run.on.controller_backoffs,
                run.on.controller_recoveries,
                run.on.controller_min_level,
            ]
        )
    return out


HEADERS = [
    "trace",
    "breach w (off)",
    "breach w (on)",
    "worst infl off",
    "worst infl on",
    "repair s off",
    "repair s on",
    "deadline",
    "backoffs",
    "recovers",
    "min level",
]

TABLES = [("Exp#18: adaptive admission control", HEADERS, rows)]


def headline(payload: dict) -> str:
    """The CLI's one-line summary of the verdict document."""
    breaches = payload["p99_breach_windows"]
    return (
        f"breach windows {breaches['controller_off']} off vs "
        f"{breaches['controller_on']} on"
    )
