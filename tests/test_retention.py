"""Tail-based trace retention: reasons, provisional roots, ring bounds."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.export import chrome_trace_json
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, RetentionPolicy, Tracer


@pytest.fixture()
def tracer():
    return Tracer(registry=MetricsRegistry(), seed=7,
                  retention=RetentionPolicy())


def finish_root(tracer, status=None, **attrs):
    span = tracer.start_span("serve.window", root=True,
                             attrs=dict(attrs) or None)
    if status == "error":
        span.end(error=RuntimeError("boom"))
    else:
        span.end()
    return span


class TestRetentionReasons:
    """Reason precedence: error > shed > degraded > slo-latency."""

    def policy(self, **kwargs):
        return RetentionPolicy(**kwargs)

    def span_with(self, tracer, status=None, **attrs):
        return finish_root(tracer, status=status, **attrs)

    def test_error_wins_over_everything(self, tracer):
        span = self.span_with(tracer, status="error", shed=True,
                              degraded=True, latency_s=9.0)
        assert self.policy().reason(span) == "error"

    def test_shed_wins_over_degraded(self, tracer):
        span = self.span_with(tracer, shed=True, degraded=True)
        assert self.policy().reason(span) == "shed"

    def test_degraded_wins_over_latency(self, tracer):
        span = self.span_with(tracer, degraded=True, latency_s=9.0)
        assert self.policy().reason(span) == "degraded"

    def test_slo_latency_needs_a_numeric_excess(self, tracer):
        assert self.policy().reason(
            self.span_with(tracer, latency_s=0.51)) == "slo-latency"
        assert self.policy().reason(
            self.span_with(tracer, latency_s=0.5)) is None
        assert self.policy().reason(
            self.span_with(tracer, latency_s="slow")) is None

    def test_healthy_root_is_dropped(self, tracer):
        assert self.policy().reason(self.span_with(tracer)) is None


class TestProvisionalRoots:
    """Head-sampled-out roots exist provisionally, children stay no-ops."""

    def make(self, retention=None, **kwargs):
        return Tracer(registry=MetricsRegistry(), seed=7,
                      sample_rate=0.0, retention=retention, **kwargs)

    def test_without_retention_misses_are_pure_noops(self):
        tracer = self.make(retention=None)
        assert tracer.start_span("op", root=True) is NOOP_SPAN

    def test_with_retention_misses_mint_provisional_roots(self):
        tracer = self.make(retention=RetentionPolicy())
        span = tracer.start_span("op", root=True)
        assert span is not NOOP_SPAN
        assert span.head_sampled is False
        assert tracer.registry.counter("obs.trace.sampled_out").value == 1

    def test_children_of_provisional_roots_are_noops(self):
        tracer = self.make(retention=RetentionPolicy())
        root = tracer.start_span("op", root=True)
        assert tracer.start_span("child", parent=root) is NOOP_SPAN

    def test_healthy_provisional_root_vanishes(self):
        tracer = self.make(retention=RetentionPolicy())
        tracer.start_span("op", root=True).end()
        assert tracer.spans == []
        assert tracer.retained == []
        assert tracer.finished_total == 0

    def test_violating_provisional_root_lands_in_retained_only(self):
        tracer = self.make(retention=RetentionPolicy())
        span = tracer.start_span("op", root=True, attrs={"shed": True})
        span.end()
        assert tracer.spans == []                 # not in the main ring
        assert tracer.finished_total == 0
        [kept] = tracer.retained
        assert kept is span
        assert kept.attrs["retention_reason"] == "shed"
        assert tracer.retained_total == 1

    def test_head_sampled_violating_root_lands_in_both(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=7,
                        sample_rate=1.0, retention=RetentionPolicy())
        finish_root(tracer, shed=True)
        assert len(tracer.spans) == 1
        [kept] = tracer.retained
        assert kept.attrs["retention_reason"] == "shed"

    def test_full_head_sampling_retains_at_one_hundred_percent(self):
        """At any head rate, every violating root must be retained."""
        tracer = self.make(retention=RetentionPolicy())
        for i in range(100):
            finish_root(tracer, shed=(i % 3 == 0))
        assert tracer.retained_total == 34
        assert all(s.attrs["retention_reason"] == "shed"
                   for s in tracer.retained)


class TestRetainedRing:
    def test_ring_is_bounded_but_total_keeps_counting(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=7,
                        sample_rate=0.0, retention=RetentionPolicy(),
                        max_retained=4)
        for _ in range(10):
            finish_root(tracer, shed=True)
        assert len(tracer.retained) == 4
        assert tracer.retained_total == 10

    def test_clear_empties_the_retained_ring(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=7,
                        sample_rate=0.0, retention=RetentionPolicy())
        finish_root(tracer, shed=True)
        tracer.clear()
        assert tracer.retained == []
        assert tracer.retained_total == 0

    def test_configure_toggles_retention(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=7, sample_rate=0.0)
        assert tracer.start_span("op", root=True) is NOOP_SPAN
        tracer.configure(retention=RetentionPolicy())
        assert tracer.start_span("op", root=True) is not NOOP_SPAN
        tracer.configure(retention=None)
        assert tracer.start_span("op", root=True) is NOOP_SPAN

    def test_retention_survives_main_ring_eviction_under_threads(self):
        """The regression the separate ring exists for: a tiny span ring
        churning under concurrent traffic must not evict SLO evidence."""
        tracer = Tracer(registry=MetricsRegistry(), seed=7,
                        sample_rate=1.0, retention=RetentionPolicy(),
                        max_spans=8)
        errors = []

        def worker(worker_id):
            try:
                for i in range(50):
                    span = tracer.start_span(
                        "serve.window", root=True,
                        attrs={"shed": True, "worker": worker_id})
                    span.end()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(tracer.spans) == 8              # main ring churned
        assert tracer.retained_total == 200          # evidence did not
        assert len(tracer.retained) == 200


class TestRetainedExport:
    def test_perfetto_marks_retained_roots_with_instants(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=7,
                        sample_rate=0.0, retention=RetentionPolicy())
        finish_root(tracer, shed=True)
        doc = json.loads(chrome_trace_json(tracer.retained))
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["retained:shed"]
        assert instants[0]["args"]["retention_reason"] == "shed"
