"""Per-request tracing: identity, propagation, sampling, and exporters."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
    render_trace_tree,
    spans_to_jsonl,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NOOP_SPAN,
    RetentionPolicy,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
)


@pytest.fixture()
def tracer():
    return Tracer(registry=MetricsRegistry(), seed=7)


class TestTraceContext:
    def test_equality_and_hash(self):
        a = TraceContext("t1", "s1", None, True)
        b = TraceContext("t1", "s1", None, True)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TraceContext("t1", "s2")
        assert a != "not a context"

    def test_defaults(self):
        ctx = TraceContext("t", "s")
        assert ctx.parent_id is None
        assert ctx.sampled is True
        assert "t" in repr(ctx)


class TestSpanLifecycle:
    def test_open_span_mutates_then_freezes(self, tracer):
        span = tracer.start_span("op", attrs={"k": 1})
        assert span.end_perf_s is None
        span.set_attr("k2", 2)
        span.add_event("hit", {"n": 3})
        span.add_link(TraceContext("other", "sp"))
        span.end()
        assert span.end_perf_s is not None
        assert span.duration_s >= 0.0
        # post-end mutations are dropped
        span.set_attr("late", True)
        span.add_event("late")
        span.add_link(TraceContext("late", "sp"))
        span.end()  # idempotent
        assert span.attrs == {"k": 1, "k2": 2}
        assert [e.name for e in span.events] == ["hit"]
        assert len(span.links) == 1

    def test_unsampled_links_are_dropped(self, tracer):
        span = tracer.start_span("op")
        span.add_link(TraceContext("t", "s", sampled=False))
        assert span.links == []

    def test_error_status(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"

    def test_explicit_end_time(self, tracer):
        span = tracer.start_span("op", start_perf_s=10.0)
        span.end(end_perf_s=10.5)
        assert span.duration_s == pytest.approx(0.5)

    def test_context_is_cached_and_consistent(self, tracer):
        span = tracer.start_span("op")
        ctx = span.context
        assert ctx is span.context
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id
        assert ctx.sampled is True
        span.end()

    def test_to_dict_shape(self, tracer):
        span = tracer.start_span("op", workload_time=1.25, attrs={"a": 1})
        span.add_event("ev")
        span.add_link(TraceContext("t2", "s2"))
        span.end()
        d = span.to_dict()
        assert d["name"] == "op"
        assert d["status"] == "ok"
        assert d["workload_time"] == 1.25
        assert d["attrs"] == {"a": 1}
        assert d["events"][0]["name"] == "ev"
        assert d["links"] == [{"trace_id": "t2", "span_id": "s2"}]
        json.dumps(d)  # must serialize


class TestNoopSpan:
    def test_all_methods_are_noops(self):
        NOOP_SPAN.set_attr("k", 1)
        NOOP_SPAN.add_event("ev")
        NOOP_SPAN.add_link(TraceContext("t", "s"))
        NOOP_SPAN.end()
        assert NOOP_SPAN.sampled is False
        assert NOOP_SPAN.attrs == {}
        assert NOOP_SPAN.events == []
        assert NOOP_SPAN.links == []

    def test_disabled_registry_yields_noop(self):
        tracer = Tracer(registry=MetricsRegistry(enabled=False))
        assert tracer.enabled is False
        assert tracer.start_span("op") is NOOP_SPAN
        with tracer.span("op") as span:
            assert span is NOOP_SPAN
        assert tracer.spans == []


class TestDeterministicIdentity:
    def test_equal_seeds_equal_ids(self):
        a = Tracer(registry=MetricsRegistry(), seed=3)
        b = Tracer(registry=MetricsRegistry(), seed=3)
        for _ in range(4):
            sa = a.start_span("op", workload_time=1.0, root=True)
            sb = b.start_span("op", workload_time=1.0, root=True)
            assert (sa.trace_id, sa.span_id) == (sb.trace_id, sb.span_id)

    def test_seed_prefixes(self):
        tracer = Tracer(registry=MetricsRegistry(), seed=0xAB)
        span = tracer.start_span("op", root=True)
        assert span.trace_id.startswith(format(0xAB, "08x"))
        assert span.span_id.startswith(format(0xAB, "06x"))
        assert len(span.trace_id) == 32
        assert len(span.span_id) == 16

    def test_first_id_distinct_from_noop(self):
        # Seed 0, tick 0 must not collide with the all-zero noop identity.
        tracer = Tracer(registry=MetricsRegistry(), seed=0)
        span = tracer.start_span("op", root=True)
        assert span.trace_id != NOOP_SPAN.trace_id
        assert span.span_id != NOOP_SPAN.span_id

    def test_clear_restarts_the_stream(self, tracer):
        first = tracer.start_span("op", root=True).trace_id
        tracer.start_span("op", root=True)
        tracer.clear()
        assert tracer.start_span("op", root=True).trace_id == first

    def test_fractional_rate_hashes_ids(self):
        def root_ids(sample_rate):
            # Retention keeps head-sampled-out roots as provisional
            # spans, so every draw yields an ID to compare.
            tracer = Tracer(registry=MetricsRegistry(),
                            sample_rate=sample_rate, seed=1,
                            retention=RetentionPolicy())
            return [tracer.start_span("op", workload_time=2.5,
                                      root=True).trace_id
                    for _ in range(8)]

        hashed = root_ids(0.5)
        counter = root_ids(1.0)
        assert all(h != c for h, c in zip(hashed, counter))
        assert all(c.startswith(format(1, "08x")) for c in counter)
        # mixed IDs are reproducible for equal (seed, tick)
        assert root_ids(0.5) == hashed


class TestPropagation:
    def test_ambient_nesting(self, tracer):
        with tracer.span("root", root=True) as root:
            assert tracer.current() is root
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
            assert tracer.current() is root
        assert tracer.current() is None
        names = [s.name for s in tracer.spans]
        assert names == ["child", "root"]  # children end first

    def test_explicit_parent_overrides_ambient(self, tracer):
        other = tracer.start_span("other", root=True)
        with tracer.span("root", root=True):
            child = tracer.start_span("child", parent=other)
            assert child.trace_id == other.trace_id
            assert child.parent_id == other.span_id

    def test_parent_accepts_context_or_span(self, tracer):
        parent = tracer.start_span("p", root=True)
        via_span = tracer.start_span("c1", parent=parent)
        via_ctx = tracer.start_span("c2", parent=parent.context)
        assert via_span.trace_id == via_ctx.trace_id == parent.trace_id
        assert via_span.parent_id == via_ctx.parent_id == parent.span_id

    def test_root_forces_fresh_trace(self, tracer):
        with tracer.span("outer", root=True) as outer:
            inner = tracer.start_span("inner", root=True)
            assert inner.trace_id != outer.trace_id
            assert inner.parent_id is None

    def test_stage_is_noop_outside_a_trace(self, tracer):
        # Library layers must not mint root traces from training loops.
        with tracer.stage("dsp.extract") as span:
            assert span is NOOP_SPAN
        assert tracer.spans == []

    def test_stage_nests_inside_a_trace(self, tracer):
        with tracer.span("root", root=True) as root:
            with tracer.stage("dsp.extract") as stage:
                assert stage.trace_id == root.trace_id

    def test_activate_does_not_end(self, tracer):
        span = tracer.start_span("op", root=True)
        with tracer.activate(span):
            assert tracer.current() is span
        assert span.end_perf_s is None
        span.end()

    def test_annotate_hits_ambient_span(self, tracer):
        tracer.annotate("orphan")  # no ambient span: silently dropped
        with tracer.span("root", root=True):
            tracer.annotate("mode_commit", {"mode": "low"})
        (span,) = tracer.spans
        assert [e.name for e in span.events] == ["mode_commit"]


class TestSampling:
    def test_rate_zero_disables(self):
        tracer = Tracer(registry=MetricsRegistry(), sample_rate=0.0)
        assert tracer.enabled is False
        assert tracer.start_span("op", root=True) is NOOP_SPAN

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(registry=MetricsRegistry(), sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(registry=MetricsRegistry()).configure(sample_rate=-0.1)

    def test_configure_then_restore_leaves_settings_as_they_were(self):
        policy = RetentionPolicy()
        tracer = Tracer(registry=MetricsRegistry(), sample_rate=0.5, seed=3,
                        retention=policy)
        first = tracer.start_span("op", root=True).trace_id
        previous = tracer.configure(sample_rate=0.01, seed=9, retention=None)
        assert (tracer.sample_rate, tracer.seed, tracer.retention) == (
            0.01, 9, None)
        tracer.configure(**previous)
        assert (tracer.sample_rate, tracer.seed, tracer.retention) == (
            0.5, 3, policy)
        # The seed-derived ID fields are restored too.
        assert tracer.start_span("op", root=True).trace_id[16:24] == (
            first[16:24])
        # Only what was changed is returned, so only that is restored.
        assert tracer.configure(seed=4) == {"seed": 3}

    def test_fractional_sampling_is_deterministic(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_rate=0.5, seed=11)
        kept = [
            tracer.start_span("op", workload_time=float(i), root=True)
            is not NOOP_SPAN
            for i in range(200)
        ]
        # deterministic: a same-seed tracer makes identical decisions
        again = Tracer(registry=MetricsRegistry(), sample_rate=0.5, seed=11)
        assert kept == [
            again.start_span("op", workload_time=float(i), root=True)
            is not NOOP_SPAN
            for i in range(200)
        ]
        # roughly half survive; drops are counted
        assert 60 <= sum(kept) <= 140
        sampled_out = registry.counter("obs.trace.sampled_out").value
        assert sampled_out == 200 - sum(kept)

    def test_children_inherit_the_drop(self):
        tracer = Tracer(registry=MetricsRegistry(), sample_rate=0.5, seed=11)
        for i in range(50):
            root = tracer.start_span("root", workload_time=float(i),
                                     root=True)
            child = tracer.start_span("child", parent=root)
            if root is NOOP_SPAN:
                assert child is NOOP_SPAN
            else:
                assert child.trace_id == root.trace_id


class TestRing:
    def test_ring_is_bounded_but_total_is_not(self):
        tracer = Tracer(registry=MetricsRegistry(), max_spans=8)
        for _ in range(20):
            tracer.start_span("op", root=True).end()
        assert len(tracer.spans) == 8
        assert tracer.finished_total == 20

    def test_traces_groups_by_trace_id(self, tracer):
        with tracer.span("root", root=True) as root:
            with tracer.span("child"):
                pass
        spans = tracer.spans
        assert {s.trace_id for s in spans} == {root.trace_id}
        assert {s.name for s in spans} == {"root", "child"}

    def test_global_tracer_is_singleton(self):
        assert get_tracer() is get_tracer()


def _make_tree(tracer: Tracer) -> list[Span]:
    """One two-level trace with an event and a cross-trace link."""
    other = tracer.start_span("flush", root=True)
    other.end()
    with tracer.span("serve.window", workload_time=0.5, root=True) as root:
        root.add_event("cache.hit", {"key": "abc"})
        with tracer.span("serve.controller"):
            pass
        root.add_link(other.context)
    return tracer.spans


_PROM_LINE = re.compile(
    r"^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|summary)"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9eE+.\-]+)$"
)


def assert_valid_prometheus(text: str) -> None:
    """Line-format validator: every line is a TYPE header or a sample."""
    lines = text.splitlines()
    assert lines, "empty exposition"
    for line in lines:
        assert _PROM_LINE.match(line), f"invalid exposition line: {line!r}"
        if not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])  # sample value parses


class TestExporters:
    def test_chrome_trace_events_shape(self, tracer):
        spans = _make_tree(tracer)
        events = chrome_trace_events(spans)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "flush", "serve.window", "serve.controller",
        }
        for e in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
            assert e["dur"] >= 0.0
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["cache.hit"]
        # the fan-in link becomes one s/f flow pair
        assert [e["ph"] for e in events if e["cat"] == "link"] == ["s", "f"]

    def test_chrome_trace_json_parses(self, tracer):
        doc = json.loads(chrome_trace_json(_make_tree(tracer)))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_jsonl_roundtrip(self, tracer):
        spans = _make_tree(tracer)
        lines = spans_to_jsonl(spans).strip().split("\n")
        assert len(lines) == len(spans)
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == [s.name for s in spans]
        assert spans_to_jsonl([]) == ""

    def test_render_trace_tree(self, tracer):
        text = render_trace_tree(_make_tree(tracer))
        assert "serve.window" in text
        assert "* cache.hit" in text
        assert "~ links:" in text
        # child indents under its root
        root_line = next(l for l in text.splitlines()
                         if "serve.window" in l)
        child_line = next(l for l in text.splitlines()
                          if "serve.controller" in l)
        indent = len(child_line) - len(child_line.lstrip())
        assert indent > len(root_line) - len(root_line.lstrip())

    def test_render_trace_tree_truncates(self, tracer):
        for _ in range(4):
            tracer.start_span("op", root=True).end()
        text = render_trace_tree(tracer.spans, max_traces=2)
        assert "2 more traces" in text

    def test_prometheus_text_validates_and_roundtrips(self):
        from repro.obs.registry import labeled

        registry = MetricsRegistry()
        registry.inc("serve.requests", 7)
        registry.set_gauge("serve.queue_depth", 3)
        registry.observe(labeled("serve.stage_s", stage="dsp"), 0.25)
        registry.observe(labeled("serve.stage_s", stage="predict"), 0.5)
        text = prometheus_text(registry)
        assert_valid_prometheus(text)
        assert "repro_serve_requests 7" in text
        assert 'repro_serve_stage_s{stage="dsp",quantile="0.5"}' in text
        # one TYPE declaration per family, not per labeled series
        assert text.count("# TYPE repro_serve_stage_s summary") == 1


class TestServeChainCoverage:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.serve.bench import run_trace_workload, train_bench_pipeline

        pipeline = train_bench_pipeline(seed=0)
        report, spans = run_trace_workload(
            sessions=6, seconds=2.0, seed=0, max_batch=8, pipeline=pipeline
        )
        return report, spans

    @pytest.mark.slow
    def test_acceptance_coverage(self, workload):
        from repro.serve.bench import serve_chain_coverage

        report, spans = workload
        coverage = serve_chain_coverage(spans)
        assert coverage["windows"] > 0
        # The PR's acceptance bound: ≥95% of completed windows carry a
        # full root→(cache|batch→predict)→controller chain.
        assert coverage["coverage"] >= 0.95

    @pytest.mark.slow
    def test_workload_trace_exports(self, workload):
        _, spans = workload
        doc = json.loads(chrome_trace_json(spans))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "serve.window" in names
        assert "serve.predict" in names
        roots = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "serve.window"
        ]
        for event in roots:
            assert event["args"]["trace_id"]
            assert event["args"]["parent_id"] is None

    @pytest.mark.slow
    def test_deterministic_workload_ids(self, workload):
        from repro.serve.bench import run_trace_workload, train_bench_pipeline

        _, spans = workload
        pipeline = train_bench_pipeline(seed=0)
        _, again = run_trace_workload(
            sessions=6, seconds=2.0, seed=0, max_batch=8, pipeline=pipeline
        )
        assert [s.span_id for s in spans] == [s.span_id for s in again]
        assert [s.name for s in spans] == [s.name for s in again]


class TestTraceCli:
    @pytest.mark.slow
    def test_trace_command_writes_perfetto_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        assert main([
            "trace", "--sessions", "4", "--seconds", "1.5",
            "--out", str(out), "--jsonl", str(jsonl),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        for line in jsonl.read_text().strip().split("\n"):
            json.loads(line)
        text = capsys.readouterr().out
        assert "chain coverage:" in text
        assert "trace " in text  # the tree view printed

    @pytest.mark.slow
    def test_stats_prom_format_validates(self, capsys):
        from repro.cli import main

        assert main(["stats", "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert_valid_prometheus(text)
        assert "# TYPE repro_dsp_features_calls counter" in text
