"""Process-wide metrics: counters, gauges, streaming histograms.

Histograms estimate quantiles from logarithmic buckets (relative error
bounded by the bucket base, ~3.5%) so a long-running process never stores
individual samples.  Everything here is pure Python with no dependencies,
and every write path short-circuits when the registry is disabled.
"""

from __future__ import annotations

import math
import os
import threading
import time


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be >= 0) to the count."""
        if n < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the value by ``delta`` (queue depths, in-flight counts).

        Unlike :meth:`set`, concurrent writers adjusting by deltas keep
        the gauge consistent — a read-modify-write of a snapshot would
        lose updates raced between the read and the set.
        """
        self.value += float(delta)


#: Log-bucket growth factor; quantile relative error is bounded by base-1.
_BUCKET_BASE = 1.07
_LOG_BASE = math.log(_BUCKET_BASE)

#: Geometric bucket midpoints, memoized: ``pow`` per bucket dominates
#: windowed SLO evaluation on the serve poll loop, and the index space
#: is tiny (one entry per distinct sample magnitude ever seen).
_MIDPOINTS: dict[int, float] = {}


def _midpoint(index: int) -> float:
    mid = _MIDPOINTS.get(index)
    if mid is None:
        mid = _MIDPOINTS[index] = _BUCKET_BASE ** (index + 0.5)
    return mid


class HistogramState:
    """A histogram's bucket occupancy; every estimate is computed here.

    A live :class:`Histogram` is one, and :meth:`Histogram.state` copies
    one at an instant, so periodic recorders capture cheap states on the
    hot path and render summaries only when a bundle is dumped.

    ``min``/``max`` are the exact extremes when known and ``None`` when
    not.  Estimates use each bucket's geometric midpoint, so their
    relative error is bounded by the bucket base; known extremes clamp
    quantiles and settle thresholds outside the sampled range exactly.
    """

    __slots__ = ("count", "total", "zero", "buckets", "min", "max")

    def __init__(self, count: int, total: float, zero: int,
                 buckets: dict[int, int], lo: float | None = None,
                 hi: float | None = None) -> None:
        self.count = count
        self.total = total
        self.zero = zero
        self.buckets = buckets
        self.min = lo
        self.max = hi

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count > 0 else 0.0

    def count_below(self, threshold: float) -> int:
        """Approximate number of samples ``<= threshold`` (SLO math).

        Exact for the non-positive bucket, and for thresholds outside
        the sampled range when the extremes are known; positive buckets
        count when their geometric midpoint (the estimate
        :meth:`quantile` reports) is within the threshold.
        """
        if self.max is not None and threshold >= self.max:
            return self.count
        if threshold < 0.0 or (self.min is not None and threshold < self.min):
            return 0
        good = self.zero
        for index, n in self.buckets.items():
            if _midpoint(index) <= threshold:
                good += n
        return good

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``q`` in [0, 1]) of the samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count <= 0:
            return 0.0
        rank = q * self.count
        cumulative = self.zero
        if cumulative >= rank:
            # q falls in (or below) the non-positive bucket, whose
            # samples span [min, 0] when any were negative.  With no
            # underflow samples this is only reachable at q == 0, where
            # the exact min (if known) is the answer.
            if self.min is None:
                return 0.0
            return self.min if self.zero == 0 else min(self.min, 0.0)
        estimate = 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                estimate = _midpoint(index)
                break
        else:
            return self.max if self.max is not None else estimate
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def summary(self) -> dict[str, float]:
        """Exportable summary: count, sum, min/max/mean, p50/p95/p99."""
        if self.count <= 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def labeled(name: str, **labels: object) -> str:
    """Canonical labeled-metric name: ``name{k="v",...}`` (sorted keys).

    The registry stores labeled series as flat entries under this
    canonical string, so ``labeled("serve.stage_s", stage="dsp")`` always
    maps to the same series and the Prometheus exporter
    (:func:`repro.obs.export.prometheus_text`) can split the family name
    from its label set without a second data structure.
    """
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class Histogram(HistogramState):
    """Streaming distribution summary with approximate quantiles.

    Samples land in exponentially sized buckets, so memory stays O(number
    of distinct magnitudes) while ``quantile`` stays within ~3.5% relative
    error.  Exact count/sum/min/max are tracked alongside.  Non-positive
    samples share one underflow bucket pinned at zero (latencies and sizes
    are non-negative in practice).
    """

    __slots__ = ("name", "exemplar")

    def __init__(self, name: str) -> None:
        super().__init__(0, 0.0, 0, {}, math.inf, -math.inf)
        self.name = name
        #: ``(trace_id, value)`` of the largest sample observed with a
        #: trace id attached — the OpenMetrics-style exemplar the
        #: Prometheus exposition emits so a slow tail bucket links to a
        #: retained trace.  ``None`` until a traced sample lands.
        self.exemplar: tuple[str, float] | None = None

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one sample, optionally tagged with its trace id."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if trace_id is not None:
            exemplar = self.exemplar
            if exemplar is None or value >= exemplar[1]:
                self.exemplar = (trace_id, value)
        if value <= 0.0:
            self.zero += 1
            return
        index = math.floor(math.log(value) / _LOG_BASE)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def state(self) -> HistogramState:
        """Copy the occupancy and exact extremes at this instant."""
        return HistogramState(self.count, self.total, self.zero,
                              dict(self.buckets), self.min, self.max)


class MetricsRegistry:
    """Named counters, gauges, and histograms.

    One process-wide instance (``get_registry()``) backs all built-in
    instrumentation; independent instances can be created for tests.
    Metric creation is thread-safe; single writes are plain float adds
    (atomic enough under the GIL for accounting purposes).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Bumped by every :meth:`reset`: values captured under different
        #: generations do not subtract.
        self.generation = 0
        #: Monotonic birth time; every snapshot freshens the ``uptime_s``
        #: gauge from it, so scrapes, ``repro stats``, flight-recorder
        #: rings, and alert rules can all see process age (a daemon that
        #: keeps restarting shows as a sawtooth).
        self._started_perf = time.monotonic()
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- metric accessors (get-or-create) ---------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name))
        return metric

    # -- write paths (no-ops when disabled) -------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        """Increment counter ``name`` by ``n``."""
        if not self.enabled:
            return
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def add_gauge(self, name: str, delta: float) -> None:
        """Adjust gauge ``name`` by ``delta``."""
        if not self.enabled:
            return
        self.gauge(name).add(delta)

    def observe(self, name: str, value: float,
                trace_id: str | None = None) -> None:
        """Record ``value`` into histogram ``name``.

        ``trace_id`` (optional) tags the sample as an exemplar candidate
        — see :attr:`Histogram.exemplar`.
        """
        if not self.enabled:
            return
        self.histogram(name).observe(value, trace_id)

    # -- export -----------------------------------------------------------

    def snapshot(self, include_histograms: bool = True) -> dict:
        """All metrics as one JSON-serializable dict.

        The metric tables are copied under the registry lock: serve
        threads create metrics concurrently, and iterating the live
        dicts raced those inserts (``RuntimeError: dictionary changed
        size during iteration``).  Values are read outside the lock —
        single float reads are atomic under the GIL.

        ``include_histograms=False`` omits the histogram summaries —
        their quantile scans dominate snapshot cost, and periodic
        recorders capture :meth:`histogram_states` instead.
        """
        if self.enabled:
            self.set_gauge("uptime_s", time.monotonic() - self._started_perf)
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = (list(self._histograms.items())
                          if include_histograms else [])
        snap: dict = {
            "counters": {k: c.value for k, c in sorted(counters)},
            "gauges": {k: g.value for k, g in sorted(gauges)},
        }
        if include_histograms:
            snap["histograms"] = {k: h.summary()
                                  for k, h in sorted(histograms)}
        return snap

    def histogram_states(self) -> dict[str, HistogramState]:
        """Every histogram's :meth:`Histogram.state` — the cheap capture.

        A state copy costs a dict copy; :meth:`Histogram.summary` costs
        three quantile scans per histogram.  Recorders sampling on the
        serve poll loop store states and render summaries later.
        """
        with self._lock:
            histograms = list(self._histograms.items())
        return {name: h.state() for name, h in histograms}

    def exemplars(self) -> dict[str, tuple[str, float]]:
        """``{histogram name: (trace_id, value)}`` for traced samples."""
        with self._lock:
            histograms = list(self._histograms.items())
        return {name: h.exemplar for name, h in histograms
                if h.exemplar is not None}

    def render_text(self) -> str:
        """Human-readable metrics report."""
        lines: list[str] = []
        snap = self.snapshot()
        if snap["counters"]:
            lines.append("== counters ==")
            width = max(len(k) for k in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"{name:<{width}}  {value:,.0f}")
        if snap["gauges"]:
            lines.append("== gauges ==")
            width = max(len(k) for k in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"{name:<{width}}  {value:,.4g}")
        if snap["histograms"]:
            lines.append("== histograms ==")
            width = max(len(k) for k in snap["histograms"])
            for name, h in snap["histograms"].items():
                lines.append(
                    f"{name:<{width}}  n={h['count']:<8,} mean={h['mean']:.6g} "
                    f"p50={h['p50']:.6g} p95={h['p95']:.6g} "
                    f"p99={h['p99']:.6g} max={h['max']:.6g}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (names are recreated on next use)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.generation += 1
            self._started_perf = time.monotonic()


# Default-on; REPRO_OBS=0 (or "off"/"false") starts the process disabled.
_GLOBAL_REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS", "1").lower() not in ("0", "off", "false")
)


def get_registry() -> MetricsRegistry:
    """The process-wide registry used by all built-in instrumentation."""
    return _GLOBAL_REGISTRY
