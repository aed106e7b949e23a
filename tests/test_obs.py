"""Tests for the observability subsystem (repro.obs) and its hooks."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Timer, get_registry, timed
from repro.obs.registry import Histogram, labeled


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a").value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.5)
        assert reg.gauge("g").value == 7.5

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")


class TestHistogram:
    def test_exact_stats(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5

    def test_quantiles_within_bucket_error(self):
        h = Histogram("h")
        values = np.arange(1, 1001, dtype=float)
        for v in values:
            h.observe(v)
        # Log buckets bound relative error; allow a loose 8% margin.
        assert h.quantile(0.5) == pytest.approx(500, rel=0.08)
        assert h.quantile(0.95) == pytest.approx(950, rel=0.08)
        assert h.quantile(0.99) == pytest.approx(990, rel=0.08)
        assert h.quantile(0.0) <= h.quantile(1.0) == 1000.0

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.summary()["count"] == 0

    def test_zero_samples(self):
        h = Histogram("h")
        for _ in range(10):
            h.observe(0.0)
        assert h.quantile(0.5) == 0.0
        assert h.max == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(2.0)
        assert set(h.summary()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }

    def test_single_sample_quantiles_are_exact(self):
        h = Histogram("h")
        h.observe(0.125)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 0.125
        assert h.min == h.max == 0.125

    def test_mixed_sign_low_quantile(self):
        h = Histogram("h")
        for v in [-3.0, -1.0, 1.0, 2.0]:
            h.observe(v)
        # Half the samples are negative: the median estimate must not
        # report a positive value, and q=0.25 sits in the underflow
        # bucket, bounded by [min, 0].
        assert h.quantile(0.25) <= 0.0
        assert h.quantile(0.25) >= h.min == -3.0
        assert h.quantile(1.0) == pytest.approx(2.0, rel=0.08)

    def test_all_negative_quantiles(self):
        h = Histogram("h")
        for v in [-5.0, -2.0, -1.0]:
            h.observe(v)
        assert h.quantile(0.0) == -5.0
        assert h.quantile(0.5) <= 0.0

    def test_quantile_zero_without_underflow_is_min(self):
        h = Histogram("h")
        for v in [3.0, 7.0, 9.0]:
            h.observe(v)
        assert h.quantile(0.0) == 3.0


class TestFractionBelow:
    """The count at or under a threshold, the numerator of SLO math."""

    def test_empty_and_extremes(self):
        h = Histogram("h")
        assert h.count_below(0.5) == 0  # no samples, nothing counted
        for v in [0.1, 0.2, 0.4]:
            h.observe(v)
        assert h.count_below(1.0) == 3  # threshold above max
        assert h.count_below(0.4) == 3  # threshold == max
        assert h.count_below(-0.1) == 0
        assert h.count_below(0.05) == 0  # below min

    def test_midrange_fraction(self):
        h = Histogram("h")
        for _ in range(90):
            h.observe(0.01)
        for _ in range(10):
            h.observe(5.0)
        assert h.count_below(0.5) / h.count == pytest.approx(0.9, abs=0.02)

    def test_counts_zero_bucket_exactly(self):
        h = Histogram("h")
        for _ in range(3):
            h.observe(0.0)
        h.observe(10.0)
        assert h.count_below(1.0) == 3


class TestLabeled:
    def test_canonical_form(self):
        assert labeled("serve.stage_s", stage="dsp") == \
            'serve.stage_s{stage="dsp"}'

    def test_labels_sorted(self):
        assert labeled("m", b="2", a="1") == labeled("m", a="1", b="2")
        assert labeled("m", b="2", a="1") == 'm{a="1",b="2"}'

    def test_no_labels_passthrough(self):
        assert labeled("plain.name") == "plain.name"

    def test_distinct_series_in_registry(self):
        reg = MetricsRegistry()
        reg.observe(labeled("stage_s", stage="dsp"), 0.1)
        reg.observe(labeled("stage_s", stage="predict"), 0.2)
        histograms = reg.snapshot()["histograms"]
        assert 'stage_s{stage="dsp"}' in histograms
        assert 'stage_s{stage="predict"}' in histograms


class TestRegistryLifecycle:
    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        # uptime_s is freshened by every snapshot; reset rebases it.
        assert set(snap["gauges"]) == {"uptime_s"}

    def test_uptime_gauge_freshens_on_snapshot(self):
        reg = MetricsRegistry()
        first = reg.snapshot()["gauges"]["uptime_s"]
        second = reg.snapshot()["gauges"]["uptime_s"]
        assert 0.0 <= first <= second

    def test_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("layer.counter", 3)
        reg.observe("layer.latency_s", 0.5)
        parsed = json.loads(json.dumps(reg.snapshot()))
        assert parsed["counters"]["layer.counter"] == 3
        assert parsed["histograms"]["layer.latency_s"]["count"] == 1

    def test_render_text_mentions_metrics(self):
        reg = MetricsRegistry()
        reg.inc("some.counter")
        reg.set_gauge("some.gauge", 2.0)
        reg.observe("some.hist", 1.0)
        text = reg.render_text()
        for name in ("some.counter", "some.gauge", "some.hist"):
            assert name in text

    def test_global_registry_is_singleton(self):
        assert get_registry() is get_registry()

    def test_snapshot_concurrent_with_metric_creation(self):
        """Regression: snapshot()/render_text() while serve threads create
        fresh metric names raced the live dicts (``RuntimeError:
        dictionary changed size during iteration``)."""
        reg = MetricsRegistry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            i = 0
            try:
                # A bounded name pool: inserts keep happening (what the
                # race needs) without growing snapshot cost unboundedly.
                while not stop.is_set():
                    reg.inc(f"c.{i % 512}")
                    reg.set_gauge(f"g.{i % 512}", float(i))
                    reg.observe(f"h.{i % 512}", float(i))
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for n in range(50):
                snap = reg.snapshot()
                assert set(snap) == {"counters", "gauges", "histograms"}
                reg.render_text()
                if n % 10 == 9:
                    # Force re-creation so inserts keep racing the reads.
                    reg.reset()
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []

    def test_repro_obs_env_disables_process(self):
        """REPRO_OBS=0 starts the registry (and thus the tracer) disabled."""
        code = (
            "from repro.obs import get_registry\n"
            "from repro.obs.trace import NOOP_SPAN, get_tracer\n"
            "registry = get_registry()\n"
            "assert not registry.enabled\n"
            "registry.inc('c')\n"
            "assert registry.snapshot()['counters'] == {}\n"
            "tracer = get_tracer()\n"
            "assert not tracer.enabled\n"
            "assert tracer.start_span('op', root=True) is NOOP_SPAN\n"
            "assert tracer.spans == []\n"
            "print('disabled-ok')\n"
        )
        env = dict(os.environ, REPRO_OBS="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "disabled-ok" in result.stdout

    def test_repro_obs_env_default_on(self):
        code = (
            "from repro.obs import get_registry\n"
            "assert get_registry().enabled\n"
            "print('enabled-ok')\n"
        )
        env = dict(os.environ)
        env.pop("REPRO_OBS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "enabled-ok" in result.stdout


class TestTiming:
    def test_timer_records_histogram(self):
        reg = MetricsRegistry()
        with Timer("op_s", registry=reg) as t:
            pass
        assert t.elapsed_s is not None and t.elapsed_s >= 0.0
        assert reg.histogram("op_s").count == 1

    def test_timer_disabled_registry(self):
        reg = MetricsRegistry(enabled=False)
        with Timer("op_s", registry=reg) as t:
            pass
        assert t.elapsed_s is None
        assert reg.snapshot()["histograms"] == {}

    def test_timed_decorator(self):
        reg = MetricsRegistry()

        @timed("fn_s", registry=reg)
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        assert add.__name__ == "add"
        assert reg.histogram("fn_s").count == 1

    def test_timer_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with Timer("op_s", registry=reg):
                raise RuntimeError("boom")
        assert reg.histogram("op_s").count == 1


class TestInstrumentationHooks:
    """The built-in hooks feed the global registry (checked as deltas so
    test order doesn't matter)."""

    def _counter(self, name):
        return get_registry().counter(name).value

    def _hist_count(self, name):
        return get_registry().histogram(name).count

    def test_feature_extraction_reports_stage_timings(self):
        from repro.dsp.features import extract_feature_matrix

        before = {
            name: self._hist_count(f"dsp.features.{name}")
            for name in ("extract_s", "mfcc_s", "zcr_s", "rmse_s",
                         "pitch_s", "magnitude_s")
        }
        calls_before = self._counter("dsp.features.calls")
        extract_feature_matrix(np.sin(np.linspace(0, 100, 4096)))
        for name, count in before.items():
            assert self._hist_count(f"dsp.features.{name}") == count + 1
        assert self._counter("dsp.features.calls") == calls_before + 1

    def test_stream_counts_commits_and_flickers(self):
        from repro.affect.stream import EmotionStream

        pushes = self._counter("affect.stream.pushes")
        commits = self._counter("affect.stream.commits")
        flickers = self._counter("affect.stream.flickers")
        stream = EmotionStream(window=3)
        for t, label in enumerate(["a", "a", "b", "a", "a"]):
            stream.push(label, t)
        assert self._counter("affect.stream.pushes") == pushes + 5
        assert self._counter("affect.stream.commits") == commits + 1
        assert self._counter("affect.stream.flickers") == flickers + 1

    def test_controller_counts_mode_changes(self):
        from repro.core.controller import AffectDrivenSystemManager

        changes = self._counter("core.controller.mode_changes")
        manager = AffectDrivenSystemManager()
        for t, label in enumerate(["distracted"] * 3 + ["relaxed"] * 5):
            manager.observe(label, float(t))
        assert self._counter("core.controller.mode_changes") > changes

    def test_decoder_publishes_activity(self, tiny_stream):
        from repro.video.decoder import Decoder

        decodes = self._counter("video.decoder.decodes")
        frames = self._counter("video.decoder.frames_decoded")
        latencies = self._hist_count("video.decoder.decode_s")
        decoded = Decoder().decode(tiny_stream)
        assert self._counter("video.decoder.decodes") == decodes + 1
        assert (
            self._counter("video.decoder.frames_decoded")
            == frames + decoded.counters.frames_decoded
        )
        assert self._hist_count("video.decoder.decode_s") == latencies + 1

    def test_emulator_publishes_run_metrics(self, catalog_44):
        from repro.android.emulator import AndroidEmulator
        from repro.android.monkey import LaunchEvent

        cold = self._counter("android.emulator.cold_starts")
        runs = self._hist_count("android.emulator.run_s")
        emulator = AndroidEmulator(catalog=catalog_44)
        a, b = catalog_44[0].name, catalog_44[1].name
        emulator.run([
            LaunchEvent(0.0, a, "calm"),
            LaunchEvent(5.0, b, "calm"),
            LaunchEvent(9.0, b, "calm"),
        ])
        assert self._counter("android.emulator.cold_starts") == cold + 2
        assert self._counter("android.emulator.foreground_touches") >= 1
        assert self._hist_count("android.emulator.run_s") == runs + 1

    def test_model_fit_and_predict_metrics(self):
        from repro.nn.layers import Dense
        from repro.nn.model import Sequential

        epochs = self._counter("nn.fit.epochs")
        samples = self._counter("nn.predict.samples")
        model = Sequential([Dense(8, activation="relu"), Dense(3)])
        model.compile(input_shape=(5,))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 5))
        y = rng.integers(0, 3, 20)
        model.fit(x, y, epochs=2, batch_size=10)
        model.predict(x)
        assert self._counter("nn.fit.epochs") == epochs + 2
        assert self._counter("nn.predict.samples") >= samples + 20


class TestCannedWorkload:
    @pytest.mark.slow
    def test_workload_covers_all_layers(self):
        from repro.bench import run_canned_workload

        reg = get_registry()
        reg.reset()
        summary = run_canned_workload(seed=0)
        snap = reg.snapshot()
        counters = snap["counters"]
        histograms = snap["histograms"]
        # The acceptance surface: feature-extraction, inference, stream,
        # decoder, and emulator metrics must all be present.
        assert counters["dsp.features.calls"] > 0
        assert counters["nn.predict.samples"] > 0
        assert counters["affect.stream.pushes"] > 0
        assert counters["video.decoder.frames_decoded"] > 0
        assert counters["android.emulator.cold_starts"] > 0
        assert histograms["affect.pipeline.classify_s"]["count"] >= 1
        assert histograms["video.decoder.decode_s"]["count"] >= 1
        assert summary["metrics_enabled"] is True
        assert summary["classifier"]["label"]


class TestStatsCli:
    @pytest.mark.slow
    def test_stats_json_report(self, capsys):
        from repro.cli import main

        assert main(["stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "workload" in report and "metrics" in report
        for family in ("dsp.features", "nn.", "affect.", "video.decoder",
                       "android.emulator"):
            assert any(
                k.startswith(family) for k in report["metrics"]["counters"]
            ), family
