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

from repro.control import AIMDPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.exp17_chaos import CHUNK_MB, ChaosRun, run_one
from repro.experiments.harness import Sweep, nested
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


def grid(scale: float, seed: int):
    """Cells keyed ``(trace, "off" | "on")``: each traffic family's chaos
    schedule open-loop, then closed-loop."""
    for trace in TRACE_FACTORIES:
        config = ExperimentConfig.scaled(
            scale, seed=seed, chunk_mb=CHUNK_MB, trace=trace
        )
        yield (trace, "off"), run_one(config, p99_ceiling=TIGHT_CEILING)
        yield (trace, "on"), run_one(
            config, p99_ceiling=TIGHT_CEILING, admission={"policy": POLICY}
        )


def pairs(cells: dict) -> dict[str, tuple[ChaosRun, ChaosRun]]:
    """``{trace: (controller off, controller on)}`` in grid order."""
    return {trace: (runs["off"], runs["on"]) for trace, runs in nested(cells).items()}


def breach_windows(run: ChaosRun) -> int:
    """Sampling windows whose foreground P99 broke the tight ceiling."""
    return len(run.gate.verdict("chaos.p99").breaches)


def deadline_met(run: ChaosRun) -> bool:
    """True when the repair met the chaos deadline SLO."""
    return run.gate.verdict("chaos.repair-deadline").passed


def breach_totals(cells: dict) -> dict[str, int]:
    """Breach windows summed over every trace, per controller mode."""
    return {
        f"controller_{mode}": sum(
            breach_windows(run) for (_, m), run in cells.items() if m == mode
        )
        for mode in ("off", "on")
    }


def _saved(cells: dict) -> int:
    """Breach windows the controller saved, over every trace."""
    totals = breach_totals(cells)
    return totals["controller_off"] - totals["controller_on"]


def _both(value, off: ChaosRun, on: ChaosRun) -> dict:
    return {"controller_off": value(off), "controller_on": value(on)}


def block(off: ChaosRun, on: ChaosRun) -> dict:
    """The per-trace JSON block of ``BENCH_adaptive.json``."""
    return {
        "baseline_p99_ms": off.baseline_p99 * 1e3,
        "p99_breach_windows": _both(breach_windows, off, on),
        "worst_window_inflation": _both(
            lambda run: run.gate.verdict("chaos.p99").observed, off, on
        ),
        "repair_time_s": _both(lambda run: run.repair_time, off, on),
        "repair_deadline_s": on.gate.verdict(
            "chaos.repair-deadline"
        ).spec.threshold,
        "repair_deadline_met": _both(deadline_met, off, on),
        "controller": {
            "backoffs": on.controller_backoffs,
            "recoveries": on.controller_recoveries,
            "min_level": on.controller_min_level,
        },
        "slos": _both(lambda run: run.gate.to_dict(), off, on),
    }


def body(cells: dict, verdicts: dict) -> dict:
    """``BENCH_adaptive.json`` below its header (stable keys, virtual time)."""
    return {
        **verdicts,
        "tight_ceiling": TIGHT_CEILING,
        "p99_breach_windows": breach_totals(cells),
        "traces": {
            trace: block(off, on) for trace, (off, on) in pairs(cells).items()
        },
    }


def rows(cells: dict) -> list[list]:
    """Table rows: breach windows and repair time, off vs on."""
    out = []
    for trace, (off, on) in pairs(cells).items():
        out.append(
            [
                trace,
                breach_windows(off),
                breach_windows(on),
                off.gate.verdict("chaos.p99").observed,
                on.gate.verdict("chaos.p99").observed,
                off.repair_time,
                on.repair_time,
                "yes" if deadline_met(on) else "NO",
                on.controller_backoffs,
                on.controller_recoveries,
                on.controller_min_level,
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


def _headline(doc: dict) -> str:
    breaches = doc["p99_breach_windows"]
    return (
        f"breach windows {breaches['controller_off']} off vs "
        f"{breaches['controller_on']} on"
    )


SWEEP = Sweep(
    "exp18_adaptive",
    grid,
    [("Exp#18: adaptive admission control", HEADERS, rows)],
    document="BENCH_adaptive.json",
    # CI's gate: closing the loop must never make interference worse,
    # and the acceptance bar is a strict improvement.
    predicates={
        "no_worse": lambda cells: _saved(cells) >= 0,
        "improved": lambda cells: _saved(cells) > 0,
        "repair_deadline_met": lambda cells: all(
            deadline_met(on) for _, on in pairs(cells).values()
        ),
    },
    body=body,
    headline=_headline,
)
