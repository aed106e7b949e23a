"""Observability for the affect→management stack.

The paper's pitch is a *real-time* closed loop: classifier latency,
decoder power counters, and app-manager memory traffic are its currency.
This package gives every layer one zero-dependency place to report those
numbers — and, since PR 5, to *follow one request* through them:

- :class:`MetricsRegistry` — process-wide counters, gauges, and streaming
  histograms (p50/p95/p99 without storing samples), with snapshot, text,
  and Prometheus export; :func:`labeled` builds canonical labeled series;
- :class:`Timer` / :func:`timed` — context-manager and decorator that
  feed latency histograms;
- :class:`Tracer` / :class:`TraceContext` (:mod:`repro.obs.trace`) —
  per-request span trees propagated via ``contextvars``, deterministic
  IDs, head sampling, bounded ring storage;
- exporters (:mod:`repro.obs.export`) — Prometheus text exposition,
  Chrome-trace/Perfetto JSON, JSONL span logs, and text trace trees;
- SLOs (:mod:`repro.obs.slo`) — declared objectives evaluated into
  error-budget/burn-rate verdicts over shared snapshot histories;
- alerting (:mod:`repro.obs.alerts`) — multi-window burn-rate rules
  with a pending→firing→resolved state machine and pluggable sinks;
- tail retention (:class:`RetentionPolicy`) — error, shed, degraded and
  SLO-violating traces survive head sampling in a separate bounded ring;
- the flight recorder (:mod:`repro.obs.flight`) — periodic registry
  snapshots plus retained traces, dumped as incident bundles when a
  page-tier alert fires (``repro monitor`` drives the whole stack);
- continuous profiling (:mod:`repro.obs.prof`) — a sampling stack
  profiler with per-stage attribution and collapsed-stack/flamegraph
  export, ``tracemalloc``-based allocation tracking, and a
  :class:`ProfileRecorder` sink that snapshots the live profile into
  incident bundles (``repro profile`` and the daemon's ``/debug/prof/*``
  drive it).

Instrumentation is default-on but cheap: a disabled registry turns every
``inc``/``observe``/``Timer``/span into a no-op, and the enabled path is
a dict lookup plus an integer add.  ``repro stats`` and ``repro trace``
(see :mod:`repro.cli`) run canned workloads and dump the reports.
"""

from repro.obs.alerts import (
    DEFAULT_ALERT_RULES,
    AlertEvent,
    AlertManager,
    AlertRule,
)
from repro.obs.flight import FlightRecorder
from repro.obs.prof import (
    HeapProfiler,
    ProfileRecorder,
    StackSampler,
    parse_collapsed,
    profile_counter_events,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labeled,
)
from repro.obs.slo import SnapshotHistory
from repro.obs.timing import Timer, process_epoch, timed, wall_time_of
from repro.obs.trace import (
    RetentionPolicy,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
)

__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "Counter",
    "DEFAULT_ALERT_RULES",
    "FlightRecorder",
    "Gauge",
    "HeapProfiler",
    "Histogram",
    "MetricsRegistry",
    "ProfileRecorder",
    "RetentionPolicy",
    "SnapshotHistory",
    "Span",
    "StackSampler",
    "Timer",
    "TraceContext",
    "Tracer",
    "get_registry",
    "get_tracer",
    "labeled",
    "parse_collapsed",
    "process_epoch",
    "profile_counter_events",
    "timed",
    "wall_time_of",
]
