"""Continuous profiling: sampler, heap tracking, exemplars, profile capture."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import prof as prof_mod
from repro.obs import trace as trace_mod
from repro.obs.alerts import (
    SEVERITY_PAGE,
    SEVERITY_TICKET,
    STATE_FIRING,
    AlertEvent,
)
from repro.obs.export import chrome_trace_json, prometheus_text
from repro.obs.prof import (
    HeapProfiler,
    ProfileRecorder,
    StackSampler,
    parse_collapsed,
    profile_counter_events,
    render_flame_summary,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.timing import Timer
from repro.obs.trace import (
    Tracer,
    current_stage_of,
    disable_stage_tracking,
    enable_stage_tracking,
    pop_thread_stage,
    push_thread_stage,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class BusyWorker:
    """A thread spinning inside an optional stage until released."""

    def __init__(self, stage: str | None = None, name: str = "busy"):
        self.stage = stage
        self.stop = threading.Event()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._spin, name=name)

    def _spin(self) -> None:
        if self.stage is not None:
            push_thread_stage(self.stage)
        self.ready.set()
        while not self.stop.is_set():
            sum(i * i for i in range(100))
        if self.stage is not None:
            pop_thread_stage()

    def __enter__(self) -> "BusyWorker":
        self.thread.start()
        assert self.ready.wait(5.0)
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join(5.0)
        assert not self.thread.is_alive()


class TestStageTable:
    def test_push_pop_and_lookup(self):
        enable_stage_tracking()
        try:
            ident = threading.get_ident()
            assert current_stage_of(ident) is None
            push_thread_stage("outer")
            push_thread_stage("inner")
            assert current_stage_of(ident) == "inner"
            pop_thread_stage()
            assert current_stage_of(ident) == "outer"
            pop_thread_stage()
            assert current_stage_of(ident) is None
        finally:
            disable_stage_tracking()

    def test_refcounted_disable_clears_table(self):
        enable_stage_tracking()
        enable_stage_tracking()
        push_thread_stage("x")
        disable_stage_tracking()
        # Still attached once: the table survives.
        assert current_stage_of(threading.get_ident()) == "x"
        disable_stage_tracking()
        assert current_stage_of(threading.get_ident()) is None

    def test_scope_entered_before_attach_never_pops(self, registry):
        """A profiler attaching mid-scope must not unbalance the stack."""
        tracer = Tracer(registry=registry)
        scope = tracer.span("serve.window", root=True)
        with scope:
            # Attach while the scope is already inside: its _tracked
            # flag was latched False at entry, so exit won't pop.
            enable_stage_tracking()
            push_thread_stage("mine")
        assert current_stage_of(threading.get_ident()) == "mine"
        pop_thread_stage()
        disable_stage_tracking()

    def test_span_scopes_push_while_tracking(self, registry):
        tracer = Tracer(registry=registry)
        enable_stage_tracking()
        try:
            ident = threading.get_ident()
            with tracer.span("serve.window", root=True):
                assert current_stage_of(ident) == "serve.window"
                with tracer.span("serve.dsp"):
                    assert current_stage_of(ident) == "serve.dsp"
                assert current_stage_of(ident) == "serve.window"
            assert current_stage_of(ident) is None
        finally:
            disable_stage_tracking()


class TestStackSampler:
    def test_deterministic_attribution(self, registry):
        sampler = StackSampler(registry=registry)
        enable_stage_tracking()
        try:
            with BusyWorker(stage="serve.dsp"):
                for _ in range(25):
                    sampler.sample_once()
        finally:
            disable_stage_tracking()
        stats = sampler.stats()
        assert stats["samples"] >= 25
        assert stats["stage_samples"].get("serve.dsp", 0) >= 25
        assert stats["attributed_fraction"] > 0.9

    def test_sample_once_excludes_caller(self, registry):
        sampler = StackSampler(registry=registry)
        sampler.sample_once()
        # Only this thread exists in most runs; its own stack must not
        # appear, so every recorded sample belongs to *other* threads.
        for stack in parse_collapsed(sampler.collapsed()):
            assert "test_sample_once_excludes_caller" not in ";".join(stack)

    def test_collapsed_round_trips(self, registry):
        sampler = StackSampler(registry=registry)
        with BusyWorker():
            for _ in range(10):
                sampler.sample_once()
        text = sampler.collapsed()
        parsed = parse_collapsed(text)
        assert sum(parsed.values()) == sampler.stats()["samples"]
        for stack in parsed:
            assert len(stack) >= 2  # thread label + at least one frame

    def test_parse_collapsed_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_collapsed("no trailing count\n")

    def test_start_stop_idempotent(self, registry):
        sampler = StackSampler(interval_s=0.001, registry=registry)
        sampler.start()
        sampler.start()  # second start is a no-op, not a second thread
        assert sampler.running
        threads = [t for t in threading.enumerate()
                   if t.name == "repro-prof-sampler"]
        assert len(threads) == 1
        sampler.stop()
        sampler.stop()
        assert not sampler.running
        # Stage tracking refcount returned to zero.
        assert not trace_mod._STAGE_TRACKING

    def test_survives_target_thread_death(self, registry):
        sampler = StackSampler(interval_s=0.001, registry=registry)
        sampler.start()
        try:
            for _ in range(10):
                t = threading.Thread(
                    target=lambda: sum(i for i in range(1000)))
                t.start()
                t.join()
            time.sleep(0.03)
        finally:
            sampler.stop(timeout_s=5.0)
        assert not sampler.running  # joined cleanly, no deadlock

    def test_no_deadlock_against_registry_snapshot(self, registry,
                                                   monkeypatch):
        """Scraping the registry while sampling must never deadlock."""
        monkeypatch.setattr(prof_mod, "PUBLISH_EVERY", 1)  # every pass
        sampler = StackSampler(interval_s=0.001, registry=registry)
        stop = threading.Event()
        errors: list[Exception] = []

        def scrape() -> None:
            try:
                while not stop.is_set():
                    registry.snapshot()
                    prometheus_text(registry)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        scraper = threading.Thread(target=scrape, name="scraper")
        sampler.start()
        scraper.start()
        time.sleep(0.1)
        stop.set()
        scraper.join(5.0)
        sampler.stop(timeout_s=5.0)
        assert not scraper.is_alive()
        assert not sampler.running
        assert errors == []

    def test_publish_sets_gauges(self, registry):
        sampler = StackSampler(registry=registry)
        enable_stage_tracking()
        try:
            with BusyWorker(stage="serve.predict"):
                for _ in range(5):
                    sampler.sample_once()
        finally:
            disable_stage_tracking()
        sampler.publish()
        snap = registry.snapshot()
        assert snap["gauges"]["prof.samples"] >= 5
        assert snap["gauges"]["prof.samples.attributed"] >= 5
        assert snap["gauges"][
            'prof.stage_samples{stage="serve.predict"}'] >= 5

    def test_reset_clears_aggregate(self, registry):
        sampler = StackSampler(registry=registry)
        with BusyWorker():
            sampler.sample_once()
        assert sampler.stats()["samples"] >= 1
        sampler.reset()
        assert sampler.stats()["samples"] == 0
        assert sampler.collapsed() == ""

    def test_rejects_bad_config(self, registry):
        with pytest.raises(ValueError):
            StackSampler(interval_s=0.0, registry=registry)

    def test_flame_summary_renders(self, registry):
        sampler = StackSampler(registry=registry)
        enable_stage_tracking()
        try:
            with BusyWorker(stage="serve.dsp"):
                for _ in range(5):
                    sampler.sample_once()
        finally:
            disable_stage_tracking()
        text = render_flame_summary(sampler)
        assert "== profile ==" in text
        assert "serve.dsp" in text


class TestHeapProfiler:
    def test_tracks_growth_and_stage_bytes(self, registry):
        heap = HeapProfiler(registry=registry)
        heap.start()
        try:
            tracer = Tracer(registry=registry)
            with tracer.span("serve.window", root=True):
                blob = [bytearray(4096) for _ in range(200)]
            heap.sample()
            report = heap.report()
            assert report["tracing"] is True
            assert report["stage_net_bytes"]  # the span reported a delta
            assert "serve.window" in report["stage_net_bytes"]
            snap = registry.snapshot()
            assert snap["gauges"]["prof.heap.current_bytes"] > 0
            assert "prof.heap.growth_bytes_per_s" in snap["gauges"]
            del blob
        finally:
            heap.stop()

    def test_top_sites_name_this_file(self, registry):
        heap = HeapProfiler(registry=registry)
        heap.start()
        try:
            blob = [bytearray(8192) for _ in range(300)]
            sites = heap.top(5)
            assert sites, "expected at least one allocation site"
            assert any("test_prof.py" in s["site"] for s in sites)
            assert all(s["size_bytes"] >= 0 for s in sites)
            del blob
        finally:
            heap.stop()

    def test_start_stop_idempotent_and_restores_hook(self, registry):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        heap = HeapProfiler(registry=registry)
        heap.start()
        heap.start()
        assert trace_mod._HEAP_HOOK is heap
        heap.stop()
        heap.stop()
        assert trace_mod._HEAP_HOOK is not heap
        assert tracemalloc.is_tracing() == was_tracing

    def test_growth_rate_sign(self, registry):
        heap = HeapProfiler(registry=registry)
        heap.start()
        try:
            heap.sample(perf_s=0.0)
            hold = [bytearray(65536) for _ in range(64)]
            first = heap.sample(perf_s=1.0)
            assert first["growth_bytes_per_s"] > 0
            del hold
            second = heap.sample(perf_s=2.0)
            assert second["growth_bytes_per_s"] < 0
        finally:
            heap.stop()


class TestProfileRecorder:
    @staticmethod
    def _page_event(at: float = 1.0) -> AlertEvent:
        return AlertEvent(rule="latency-page", severity=SEVERITY_PAGE,
                          state=STATE_FIRING, at=at, burn_fast=2.0,
                          burn_slow=2.0, threshold=1.0)

    def _sampler(self, registry) -> StackSampler:
        sampler = StackSampler(registry=registry)
        with BusyWorker():
            sampler.sample_once()
        return sampler

    def test_writes_into_latest_bundle(self, registry, tmp_path):
        bundle = tmp_path / "incident-01-x-t0001.00"
        bundle.mkdir()

        class FakeRecorder:
            bundles = [str(bundle)]

        sink = ProfileRecorder(self._sampler(registry),
                               recorder=FakeRecorder())
        sink.emit(self._page_event())
        collapsed = bundle / "profile.collapsed"
        assert collapsed.exists()
        assert parse_collapsed(collapsed.read_text())
        payload = json.loads((bundle / "profile.json").read_text())
        assert payload["rule"] == "latency-page"
        assert payload["profile"]["samples"] >= 1

    def test_falls_back_to_own_dir(self, registry, tmp_path):
        sink = ProfileRecorder(self._sampler(registry),
                               profile_dir=str(tmp_path / "prof"))
        sink.emit(self._page_event())
        assert len(sink.profiles) == 1
        assert parse_collapsed(
            open(sink.profiles[0], encoding="utf-8").read())

    def test_ignores_non_page_and_caps_captures(self, registry, tmp_path):
        sink = ProfileRecorder(self._sampler(registry),
                               profile_dir=str(tmp_path / "prof"))
        ticket = AlertEvent(rule="r", severity=SEVERITY_TICKET,
                            state=STATE_FIRING, at=1.0, burn_fast=2.0,
                            burn_slow=2.0, threshold=1.0)
        sink.emit(ticket)
        assert sink.profiles == []
        for k in range(prof_mod.MAX_PROFILES + 1):
            sink.emit(self._page_event(1.0 + k))
        assert len(sink.profiles) == prof_mod.MAX_PROFILES

    def test_includes_heap_report_when_attached(self, registry, tmp_path):
        heap = HeapProfiler(registry=registry)
        heap.start()
        try:
            sink = ProfileRecorder(self._sampler(registry), heap=heap,
                                   profile_dir=str(tmp_path / "prof"))
            sink.emit(self._page_event())
        finally:
            heap.stop()
        payload = json.loads(
            (tmp_path / "prof").glob("*/profile.json").__next__()
            .read_text())
        assert "heap" in payload


class TestExemplars:
    def test_histogram_keeps_worst_traced_sample(self, registry):
        registry.observe("lat", 0.1, trace_id="t-small")
        registry.observe("lat", 0.9, trace_id="t-big")
        registry.observe("lat", 0.5, trace_id="t-mid")
        registry.observe("lat", 2.0)  # untraced: never an exemplar
        assert registry.exemplars() == {"lat": ("t-big", 0.9)}

    def test_prometheus_emits_openmetrics_exemplar(self, registry):
        registry.observe("lat", 0.25, trace_id="abc123")
        text = prometheus_text(registry)
        tail = [line for line in text.splitlines()
                if 'quantile="0.99"' in line]
        assert len(tail) == 1
        assert tail[0].endswith('# {trace_id="abc123"} 0.25')
        # Only the tail quantile carries it.
        assert text.count("trace_id=") == 1

    def test_no_exemplar_without_traces(self, registry):
        registry.observe("lat", 0.25)
        assert "trace_id=" not in prometheus_text(registry)

    def test_timer_captures_ambient_trace_id(self, registry):
        tracer = Tracer(registry=registry, seed=5)
        with tracer.span("serve.window", root=True) as _:
            span = tracer.current()
            with Timer("lat", registry=registry):
                pass
        exemplars = registry.exemplars()
        assert exemplars["lat"][0] == span.trace_id

    def test_timer_outside_trace_records_no_exemplar(self, registry):
        with Timer("lat", registry=registry):
            pass
        assert registry.exemplars() == {}


class TestCounterEvents:
    def test_counter_events_merge_into_chrome_trace(self, registry):
        sampler = StackSampler(registry=registry)
        with BusyWorker():
            for _ in range(3):
                sampler.sample_once()
        events = profile_counter_events(sampler)
        assert events and all(e["ph"] == "C" for e in events)
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        doc = json.loads(chrome_trace_json([], counter_events=events))
        counters = [e for e in doc["traceEvents"]
                    if e["name"] == "prof.samples"]
        assert len(counters) == 3
        last = counters[-1]["args"]
        assert last["attributed"] + last["unattributed"] == 3

    def test_heap_track(self, registry):
        heap = HeapProfiler(registry=registry)
        heap.start()
        try:
            heap.sample(perf_s=1.0)
            heap.sample(perf_s=2.0)
        finally:
            heap.stop()
        events = profile_counter_events(heap=heap)
        assert [e["name"] for e in events] == ["prof.heap", "prof.heap"]
        assert all("traced_mib" in e["args"] for e in events)
