"""AIMD admission controller: throttle background work to protect P99.

ChameleonEC's core idea is *tuning* repair aggressiveness against
foreground interference; this module closes the telemetry loop the
timeseries recorder opened. Every sampling window the controller reads
the foreground P99 of the window that just closed, computes its
inflation over a calm baseline, and steps an AIMD intensity level:

* **multiplicative back-off** when inflation crosses the high-water
  mark — scrub rate and repair parallelism shrink together, fast,
  because a breach window is already a user-visible event;
* **additive recovery** when inflation drops below the low-water mark —
  intensity creeps back so repair/scrub throughput is not permanently
  sacrificed to one transient spike;
* **hysteresis** between the marks — no action, so the controller
  cannot oscillate on a series hovering near one threshold;
* a **floor** — repair deadlines are SLOs too, so background work is
  never throttled to a standstill.

Determinism is the contract that makes the controller testable: it
acts only at window boundaries, only on windows the recorder already
closed (never on half-accumulated state), and only through the
deterministic actuators (:meth:`~repro.integrity.scrubber.Scrubber.set_rate`,
``set_concurrency`` on the repairers). Same-seed runs are therefore
byte-identical — and a controller whose thresholds never trigger is
byte-identical to no controller at all (enforced by the equivalence
test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.integrity.scrubber import Scrubber
    from repro.obs.timeseries import TimeseriesRecorder
    from repro.sim.engine import PeriodicHook


@dataclass(frozen=True)
class AIMDPolicy:
    """The AIMD step function and its thresholds (pure, unit-testable).

    ``high_water``/``low_water`` are *inflation ratios* — window P99
    over the calm baseline — not absolute latencies, so one policy
    transfers across traffic families whose baselines differ by three
    orders of magnitude. ``backoff`` multiplies the intensity level on
    breach; ``recover`` is added per calm window; ``floor`` bounds the
    level from below.
    """

    high_water: float = 2.0
    low_water: float = 1.25
    backoff: float = 0.5
    recover: float = 0.1
    floor: float = 0.1

    def __post_init__(self) -> None:
        if self.high_water <= 0:
            raise ReproError("high_water must be positive")
        if not 0 < self.low_water < self.high_water:
            raise ReproError(
                "low_water must sit in (0, high_water) — the gap is the "
                "hysteresis band"
            )
        if not 0 < self.backoff < 1:
            raise ReproError("backoff must be a factor in (0, 1)")
        if self.recover <= 0:
            raise ReproError("recover must be a positive additive step")
        if not 0 < self.floor <= 1:
            raise ReproError("floor must be in (0, 1]")

    def step(self, level: float, inflation: float) -> float:
        """Next intensity level given this window's P99 inflation."""
        if inflation > self.high_water:
            return max(self.floor, level * self.backoff)
        if inflation < self.low_water:
            return min(1.0, level + self.recover)
        return level  # hysteresis band: hold


class AdmissionController:
    """Window-synchronous AIMD throttle for scrub + repair intensity.

    Construct with a *started* :class:`TimeseriesRecorder`, attach
    actuators (:meth:`attach_scrubber`, :meth:`attach_repairer`), then
    :meth:`start`. The controller installs its own
    :meth:`~repro.sim.engine.Simulator.every` hook at the recorder's
    window cadence; queue FIFO order at equal timestamps guarantees the
    recorder samples *before* the controller reads, and a
    ``windows_closed`` guard makes out-of-phase installation merely lag
    one window instead of reading a half-window.

    ``baseline_p99`` — the calm-period foreground P99 — anchors the
    inflation ratio.
    """

    def __init__(
        self,
        recorder: "TimeseriesRecorder",
        *,
        policy: AIMDPolicy | None = None,
        baseline_p99: float,
    ) -> None:
        if not baseline_p99 > 0:
            raise ReproError("baseline_p99 must be positive")
        self.recorder = recorder
        self.sim = recorder.sim
        self.policy = policy if policy is not None else AIMDPolicy()
        self.baseline_p99 = baseline_p99
        #: Intensity level in [policy.floor, 1.0], shared by every actuator.
        self.level = 1.0
        self.min_level = 1.0
        self.backoffs = 0
        self.recoveries = 0
        self.windows_seen = 0
        self._scrubbers: list[tuple["Scrubber", float]] = []
        self._repairers: list[tuple[object, int]] = []
        self._windows_acted = recorder.windows_closed
        self._hook: "PeriodicHook | None" = None

    # -- actuators -------------------------------------------------------------

    def attach_scrubber(self, scrubber: "Scrubber") -> None:
        """Manage ``scrubber``'s scan rate (its current rate = level 1.0)."""
        self._scrubbers.append((scrubber, scrubber.rate))
        self._apply_scrubber(scrubber, scrubber.rate)

    def attach_repairer(self, repairer) -> None:
        """Manage ``repairer``'s parallelism cap (current cap = level 1.0)."""
        base = int(repairer.concurrency)
        self._repairers.append((repairer, base))
        self._apply_repairer(repairer, base)

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True while the window hook is live."""
        return self._hook is not None and not self._hook.cancelled

    def start(self) -> None:
        """Install the control hook at the recorder's window cadence."""
        if self.started:
            raise ReproError("admission controller already started")
        if not self.recorder.started:
            raise ReproError(
                "admission controller needs a started TimeseriesRecorder "
                "(it reads the recorder's closed windows)"
            )
        self._windows_acted = self.recorder.windows_closed
        self._hook = self.sim.every(self.recorder.window, self._on_window)

    def stop(self) -> None:
        """Cancel the hook (idempotent); actuator levels are left as-is."""
        if self._hook is not None:
            self._hook.cancel()
            self._hook = None

    # -- the control step ------------------------------------------------------

    def _on_window(self) -> None:
        closed = self.recorder.windows_closed
        if closed <= self._windows_acted:
            # The recorder has not closed a new window yet (out-of-phase
            # installation): wait rather than act on stale data.
            return
        self._windows_acted = closed
        self.windows_seen += 1
        if self.recorder.latest("lat.foreground.count") <= 0:
            return  # no foreground evidence either way: hold
        inflation = self.recorder.latest("lat.foreground.p99") / self.baseline_p99
        level = self.policy.step(self.level, inflation)
        registry = get_registry()
        if registry.enabled:
            registry.counter("control.windows").inc()
            registry.gauge("control.level").set(level)
        if level == self.level:
            return
        direction = "backoff" if level < self.level else "recover"
        self.level = level
        self.min_level = min(self.min_level, level)
        if direction == "backoff":
            self.backoffs += 1
        else:
            self.recoveries += 1
        if registry.enabled:
            registry.counter(f"control.{direction}s").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                f"control.{direction}",
                track="control",
                inflation=inflation,
                level=level,
                window=closed,
            )
        self._apply()

    # -- actuation -------------------------------------------------------------

    def _apply(self) -> None:
        for scrubber, base in self._scrubbers:
            self._apply_scrubber(scrubber, base)
        for repairer, base in self._repairers:
            self._apply_repairer(repairer, base)

    def _apply_scrubber(self, scrubber: "Scrubber", base: float) -> None:
        target = base * self.level
        if scrubber.rate != target:
            scrubber.set_rate(target)

    def _apply_repairer(self, repairer, base: int) -> None:
        if repairer.crashed:
            return  # a dead coordinator has no knobs; recovery re-attaches
        target = max(1, int(round(base * self.level)))
        if repairer.concurrency != target:
            repairer.set_concurrency(target)


__all__ = [
    "AIMDPolicy",
    "AdmissionController",
]
