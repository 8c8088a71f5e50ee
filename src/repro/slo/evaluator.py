"""Evaluates declarative SLOs against a finished run's telemetry.

The evaluator is pure: it reads a :class:`RunTelemetry` bundle (series
from a :class:`~repro.obs.timeseries.TimeseriesRecorder`, the integrity
ledger, repair timing) and renders verdicts — it never touches the
simulator. That keeps the SLO gate re-runnable against archived
telemetry and trivially deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.integrity.ledger import IntegrityLedger
from repro.obs.timeseries import TimeseriesRecorder
from repro.slo.spec import SLOBreach, SLOReport, SLOSpec, SLOVerdict

#: Series holding the per-window foreground P99 (seconds), and the
#: request count of the same windows.
_P99_SERIES = "lat.foreground.p99"
_COUNT_SERIES = "lat.foreground.count"


@dataclass
class RunTelemetry:
    """Everything the evaluator may consult about one finished run.

    Only the fields a given spec set needs must be populated — e.g. a
    pure repair-deadline gate needs no timeseries. ``baseline_p99`` is
    the calm-period foreground P99 the inflation ceiling multiplies;
    measure it over pre-chaos windows or carry it in from a separate
    baseline run.
    """

    end_time: float
    timeseries: TimeseriesRecorder | None = None
    baseline_p99: float = 0.0
    repair_started_at: float | None = None
    repair_finished_at: float | None = None
    chunks_lost: int = 0
    unverified_chunks: int = 0
    ledger: IntegrityLedger | None = None


class SLOEvaluator:
    """Applies a list of :class:`SLOSpec` to one run's telemetry."""

    def __init__(self, specs: list[SLOSpec]) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate SLO names in {names}")
        self.specs = list(specs)

    def evaluate(self, telemetry: RunTelemetry) -> SLOReport:
        """One verdict per spec, with structured breach records."""
        report = SLOReport()
        for spec in self.specs:
            handler = getattr(self, f"_eval_{spec.kind}")
            report.verdicts.append(handler(spec, telemetry))
        return report

    # -- kind handlers ---------------------------------------------------------

    def _eval_foreground_p99_inflation(
        self, spec: SLOSpec, t: RunTelemetry
    ) -> SLOVerdict:
        if t.timeseries is None:
            return SLOVerdict(spec, True, 0.0, note="no timeseries: not evaluated")
        if t.baseline_p99 <= 0:
            return SLOVerdict(spec, True, 0.0, note="no baseline P99: not evaluated")
        series = t.timeseries.series.get(_P99_SERIES)
        if series is None or not series.values:
            return SLOVerdict(
                spec, True, 0.0, note=f"series {_P99_SERIES!r} empty"
            )
        count_series = t.timeseries.series.get(_COUNT_SERIES)
        breaches = []
        worst = 0.0
        for i, (time, p99) in enumerate(zip(series.times, series.values)):
            # Windows with no completed requests sample as 0.0 — they
            # carry no latency evidence either way.
            if count_series is not None and count_series.values[i] == 0:
                continue
            inflation = p99 / t.baseline_p99
            worst = max(worst, inflation)
            if inflation > spec.threshold:
                breaches.append(
                    SLOBreach(
                        slo=spec.name,
                        time=time,
                        observed=inflation,
                        threshold=spec.threshold,
                        window=i,
                        detail=(
                            f"window P99 {p99 * 1e3:.2f} ms vs baseline "
                            f"{t.baseline_p99 * 1e3:.2f} ms"
                        ),
                    )
                )
        return SLOVerdict(spec, not breaches, worst, breaches)

    def _eval_repair_deadline(self, spec: SLOSpec, t: RunTelemetry) -> SLOVerdict:
        if t.repair_started_at is None:
            return SLOVerdict(spec, True, 0.0, note="no repair ran: not evaluated")
        if t.repair_finished_at is None:
            observed = t.end_time - t.repair_started_at
            breach = SLOBreach(
                slo=spec.name,
                time=t.end_time,
                observed=observed,
                threshold=spec.threshold,
                detail="repair never completed within the run",
            )
            return SLOVerdict(spec, False, observed, [breach])
        observed = t.repair_finished_at - t.repair_started_at
        if observed > spec.threshold:
            breach = SLOBreach(
                slo=spec.name,
                time=t.repair_finished_at,
                observed=observed,
                threshold=spec.threshold,
                detail=(
                    f"repair took {observed:.2f} s; deadline {spec.threshold:.2f} s"
                ),
            )
            return SLOVerdict(spec, False, observed, [breach])
        return SLOVerdict(spec, True, observed)

    def _eval_detection_latency(self, spec: SLOSpec, t: RunTelemetry) -> SLOVerdict:
        if t.ledger is None:
            return SLOVerdict(spec, True, 0.0, note="no ledger: not evaluated")
        breaches = []
        worst = 0.0
        for record in t.ledger.injected:
            if record.detected:
                latency = record.detection_latency
                time = record.detected_at
                detail = f"{record.kind} on {record.chunk} detected by {record.detected_by}"
            else:
                # Still latent at the end of the run: at least this long.
                latency = t.end_time - record.injected_at
                time = t.end_time
                detail = f"{record.kind} on {record.chunk} never detected"
            worst = max(worst, latency)
            if latency > spec.threshold or not record.detected:
                breaches.append(
                    SLOBreach(
                        slo=spec.name,
                        time=time,
                        observed=latency,
                        threshold=spec.threshold,
                        detail=detail,
                    )
                )
        return SLOVerdict(spec, not breaches, worst, breaches)

    def _eval_zero_loss(self, spec: SLOSpec, t: RunTelemetry) -> SLOVerdict:
        unexplained = len(t.ledger.unexplained) if t.ledger is not None else 0
        losses = t.chunks_lost + t.unverified_chunks + unexplained
        if losses > spec.threshold:
            breach = SLOBreach(
                slo=spec.name,
                time=t.end_time,
                observed=float(losses),
                threshold=spec.threshold,
                detail=(
                    f"lost={t.chunks_lost} unverified={t.unverified_chunks} "
                    f"unexplained={unexplained}"
                ),
            )
            return SLOVerdict(spec, False, float(losses), [breach])
        return SLOVerdict(spec, True, float(losses))
