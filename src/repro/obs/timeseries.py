"""Virtual-time series sampled from counters, histograms, and resources.

PR 1's :class:`~repro.obs.metrics.MetricsRegistry` answers "what happened
over the whole run"; this module answers "what happened *when*". A
:class:`TimeseriesRecorder` rides the simulator clock (via
:meth:`repro.sim.engine.Simulator.every`) and closes a sampling window
every ``window`` seconds of virtual time:

* registered **counters** become per-window *rates* (delta / window);
* **gauges** become point-in-time samples;
* **histograms** become per-window *delta* summaries — count, mean,
  p50/p90/p99 of only the observations that landed inside the window
  (the repair-pipelining literature's argument: repair-time percentiles
  are a first-class timeseries, not a scalar);
* tracked **resources** (links, disks) get per-tag bandwidth
  attribution: the bytes each traffic class (foreground vs
  ``repair`` vs ``scrub``) moved through the resource that window,
  as B/s shares — per resource and aggregated cluster-wide;
* tracked **latency recorders** get exact per-window percentile series
  computed over just the window's samples.

Sampling is strictly read-only: the recorder never calls
``settle_now()`` or mutates any simulation object, so installing it
cannot perturb a run — byte counters are read as-at the last completed
slice, which is itself a deterministic function of the event history.
The determinism contract (verified by the equivalence tests) is:
a run with a recorder installed produces byte-for-byte the same
simulation outcome as a run without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.resources import FOREGROUND_TAG, REPAIR_TAG, SCRUB_TAG, Resource, ResourceWindows

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids sim<->obs cycle)
    from repro.metrics.latency import LatencyRecorder
    from repro.sim.engine import PeriodicHook, Simulator

#: Tags broken out of the foreground share (everything else folds into
#: ``foreground``). Order fixes the series layout in exports.
ATTRIBUTED_TAGS = (REPAIR_TAG, SCRUB_TAG)

#: Percentiles a tracked latency recorder gets, one series each
#: (``lat.<name>.p50``, ``lat.<name>.p99``).
_PERCENTILES = (50.0, 99.0)


@dataclass
class Series:
    """One named virtual-time series: parallel times/values lists."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Record one point (``time`` is the window's closing timestamp)."""
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self.values[-1] if self.values else 0.0

    def max(self) -> float:
        """Largest recorded value (0.0 when empty)."""
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 when empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {"name": self.name, "times": list(self.times),
                "values": list(self.values)}


@dataclass
class _HistShadow:
    """Cumulative histogram state at the last window close."""

    count: int
    total: float
    zeros: int
    buckets: dict[int, int]


def _window_delta(hist: Histogram, shadow: _HistShadow) -> Histogram:
    """A histogram holding only the observations since ``shadow``.

    Bucket counts subtract exactly (cumulative counts are monotone), so
    the delta's count/mean/quantiles are exact window statistics up to
    the usual geometric-bucket quantile error. The true window min/max
    are not recoverable from cumulative state; the delta's extremes are
    bucket-boundary estimates, good enough for quantile clamping.
    """
    delta = Histogram(hist.name, growth=hist.growth)
    delta.count = hist.count - shadow.count
    delta.total = hist.total - shadow.total
    delta._zeros = hist._zeros - shadow.zeros
    for idx, n in hist._buckets.items():
        d = n - shadow.buckets.get(idx, 0)
        if d:
            delta._buckets[idx] = d
    if delta._buckets:
        low = min(delta._buckets)
        high = max(delta._buckets)
        delta.min = hist.growth ** low
        delta.max = hist.growth ** (high + 1)
    if delta._zeros:
        delta.min = 0.0
    # Never report beyond the cumulative extremes.
    delta.min = max(delta.min, hist.min) if delta.count else delta.min
    delta.max = min(delta.max, hist.max) if delta.count else delta.max
    return delta


class TimeseriesRecorder:
    """Windowed virtual-time sampler for metrics, bandwidth, and latency.

    Construct, register sources (:meth:`track_registry`,
    :meth:`track_resources`, :meth:`track_latency`), then :meth:`start`.
    Every ``window`` virtual seconds a sample fires and appends one
    point per series; :meth:`stop` cancels the clock hook (required
    before driving the simulator with an unbounded ``run()``, which
    would otherwise never drain the queue).
    """

    def __init__(self, sim: Simulator, window: float = 5.0) -> None:
        if window <= 0:
            raise ReproError("timeseries window must be positive")
        self.sim = sim
        self.window = window
        self.series: dict[str, Series] = {}
        self._registry: MetricsRegistry | None = None
        self._counter_last: dict[str, float] = {}
        self._hist_shadow: dict[str, _HistShadow] = {}
        self._resources = ResourceWindows()
        self._latencies: list[tuple[str, LatencyRecorder]] = []
        self._lat_cursor: dict[str, int] = {}
        self._hook: PeriodicHook | None = None
        self.windows_closed = 0
        self._window_opened = sim.now
        self._last_close: float | None = None

    # -- source registration ---------------------------------------------------

    def track_registry(self, registry: MetricsRegistry) -> None:
        """Sample every metric in ``registry`` (including ones created
        after this call — the registry is re-walked at each window)."""
        if not registry.enabled:
            return
        self._registry = registry

    def track_resources(self, resources: list[Resource]) -> None:
        """Record per-tag bandwidth attribution series for ``resources``."""
        self._resources.track(resources)

    def track_latency(self, recorder: LatencyRecorder,
                      name: str | None = None) -> None:
        """Record exact per-window P50 and P99 latencies from ``recorder``."""
        key = name if name is not None else recorder.name
        if key in self._lat_cursor:
            raise ReproError(f"latency source {key!r} already tracked")
        self._lat_cursor[key] = len(recorder.samples)
        self._latencies.append((key, recorder))

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True while the clock hook is live."""
        return self._hook is not None and not self._hook.cancelled

    def start(self) -> None:
        """Install the periodic sampling hook on the simulator clock."""
        if self.started:
            raise ReproError("timeseries recorder already started")
        self._window_opened = self.sim.now
        self._hook = self.sim.every(self.window, self.sample)

    def stop(self) -> None:
        """Cancel the hook; close one final partial window if non-empty.

        The final window spans only ``now - last close``, so its rates
        are scaled by the actual elapsed span (see :meth:`sample`), not
        diluted over a full ``window``.
        """
        if self._hook is not None:
            self._hook.cancel()
            self._hook = None
            if self.sim.now > self._window_opened:
                self.sample()

    # -- sampling --------------------------------------------------------------

    def _series(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name)
        return series

    def sample(self) -> None:
        """Close the current window (normally driven by the clock hook).

        Rates (counter deltas, bandwidth shares) are divided by the
        window's *actual* span — the virtual time since the previous
        close — so a partial final window (or a manual mid-window
        ``sample()``) reports true rates instead of deltas diluted over
        the full configured ``window``. A zero-span call is a no-op:
        there is no window to close.
        """
        now = self.sim.now
        span = now - self._window_opened
        if span <= 0:
            return
        self._window_opened = now
        self._last_close = now
        self.windows_closed += 1
        if self._registry is not None:
            self._sample_registry(now, span)
        self._sample_resources(now, span)
        self._sample_latencies(now)

    def _sample_registry(self, now: float, span: float) -> None:
        for metric in self._registry:
            if isinstance(metric, Counter):
                last = self._counter_last.get(metric.name, 0.0)
                self._counter_last[metric.name] = metric.value
                self._series(f"rate.{metric.name}").append(
                    now, (metric.value - last) / span
                )
            elif isinstance(metric, Gauge):
                self._series(f"gauge.{metric.name}").append(now, metric.value)
            elif isinstance(metric, Histogram):
                shadow = self._hist_shadow.get(metric.name)
                if shadow is None:
                    shadow = _HistShadow(0, 0.0, 0, {})
                delta = _window_delta(metric, shadow)
                self._hist_shadow[metric.name] = _HistShadow(
                    metric.count, metric.total, metric._zeros,
                    dict(metric._buckets),
                )
                base = f"hist.{metric.name}"
                self._series(f"{base}.count").append(now, delta.count)
                self._series(f"{base}.mean").append(now, delta.mean)
                self._series(f"{base}.p50").append(now, delta.p50)
                self._series(f"{base}.p90").append(now, delta.p90)
                self._series(f"{base}.p99").append(now, delta.p99)

    def _sample_resources(self, now: float, span: float) -> None:
        windows = self._resources.close()
        totals = {tag: 0.0 for tag in (*ATTRIBUTED_TAGS, FOREGROUND_TAG)}
        for res, before, counts in windows:
            shares = {tag: 0.0 for tag in totals}
            for tag, cum in counts.items():
                bucket = tag if tag in ATTRIBUTED_TAGS else FOREGROUND_TAG
                shares[bucket] += cum - before.get(tag, 0.0)
            for bucket, nbytes in shares.items():
                bw = nbytes / span
                totals[bucket] += bw
                self._series(f"bw.{res.name}.{bucket}").append(now, bw)
        if windows:
            for bucket, bw in totals.items():
                self._series(f"bw.total.{bucket}").append(now, bw)

    def _sample_latencies(self, now: float) -> None:
        for key, recorder in self._latencies:
            cursor = self._lat_cursor[key]
            fresh = recorder.samples[cursor:]
            self._lat_cursor[key] = len(recorder.samples)
            self._series(f"lat.{key}.count").append(now, len(fresh))
            for q in _PERCENTILES:
                value = float(np.percentile(fresh, q)) if fresh else 0.0
                self._series(f"lat.{key}.p{q:g}").append(now, value)

    # -- views -----------------------------------------------------------------

    @property
    def last_close(self) -> float | None:
        """Virtual timestamp of the most recently closed window (None
        before any window has closed). Live-readable mid-run: a
        runtime consumer (the admission controller) compares this
        against its own bookkeeping to act exactly once per window."""
        return self._last_close

    def latest(self, name: str, default: float = 0.0) -> float:
        """Last closed-window value of ``name`` (``default`` when the
        series was never recorded or is still empty).

        The live-read API: unlike :meth:`get`, a missing series is not
        an error — mid-run consumers ask about windows that may simply
        not have produced that series yet.
        """
        series = self.series.get(name)
        if series is None or not series.values:
            return default
        return series.values[-1]

    def get(self, name: str) -> Series:
        """The named series (raises when it was never recorded)."""
        try:
            return self.series[name]
        except KeyError:
            raise ReproError(
                f"no timeseries {name!r}; recorded: {sorted(self.series)[:20]}"
            ) from None

    def names(self) -> list[str]:
        """All recorded series names, sorted."""
        return sorted(self.series)

    def to_dict(self, prefix: str | None = None) -> dict:
        """JSON-serialisable dump of every series (optionally filtered)."""
        return {
            name: series.to_dict()
            for name, series in sorted(self.series.items())
            if prefix is None or name.startswith(prefix)
        }


__all__ = [
    "ATTRIBUTED_TAGS",
    "Series",
    "TimeseriesRecorder",
]
