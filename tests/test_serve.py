"""The multi-session serving runtime: cache, batcher, sessions, server."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.affect.pipeline import AffectClassifierPipeline
from repro.datasets import emovo_like
from repro.datasets.speech import synthesize_utterance
from repro.errors import SessionEvictedError
from repro.resilience import CLOSED, OPEN, CircuitBreaker
from repro.serve import (
    AffectServer,
    BatchRequest,
    LRUCache,
    MicroBatcher,
    ServeConfig,
    SessionManager,
    window_hash,
)
from repro.serve import sessions as sessions_module


@pytest.fixture(scope="module")
def pipeline():
    corpus = emovo_like(n_per_class=4, seed=0)
    p = AffectClassifierPipeline("mlp", seed=0)
    p.train(corpus, epochs=3)
    return p


@pytest.fixture(scope="module")
def waves(pipeline):
    labels = pipeline.classifier.label_names
    return [
        synthesize_utterance(labels[i % len(labels)], actor=i % 4,
                             sentence=i % 3, take=i)
        for i in range(8)
    ]


class TestWindowHash:
    def test_content_keyed(self):
        a = np.arange(64, dtype=np.float64)
        assert window_hash(a) == window_hash(a.copy())
        assert window_hash(a) != window_hash(a + 1e-12)

    def test_dtype_and_shape_sensitive(self):
        a = np.zeros(16, dtype=np.float64)
        assert window_hash(a) != window_hash(a.astype(np.float32))
        assert window_hash(a) != window_hash(a.reshape(4, 4))

    def test_non_contiguous_view(self):
        a = np.arange(32, dtype=np.float64)
        assert window_hash(a[::2]) == window_hash(a[::2].copy())


class TestLRUCache:
    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_peek_does_not_touch(self):
        cache = LRUCache(capacity=1)
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        assert cache.peek("absent") is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_threaded_mixed_operations(self):
        # Regression: the unlocked OrderedDict could corrupt its recency
        # list (or raise KeyError out of get) under concurrent
        # put/get/eviction from serve threads.
        cache = LRUCache(capacity=8)
        errors: list[Exception] = []

        def storm(worker: int) -> None:
            try:
                for i in range(400):
                    key = f"k{(worker * 7 + i) % 24}"
                    cache.put(key, (worker, i))
                    cache.get(key)
                    cache.get(f"k{i % 24}")
                    cache.peek(f"k{(i + 5) % 24}")
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=storm, args=(w,))
                   for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 8
        # Counters stay exact: every get was either a hit or a miss.
        assert cache.hits + cache.misses == 6 * 400 * 2


def _request(key: str, sid: str = "s", now: float = 0.0,
             seq: int = 0) -> BatchRequest:
    features = np.full((2, 3), float(sum(map(ord, key))))
    return BatchRequest(session_id=sid, key=key, features=features,
                        submitted_at=now, seq=seq)


class TestMicroBatcher:
    def test_flush_on_full(self):
        calls = []

        def predict(x):
            calls.append(x.shape[0])
            return np.arange(x.shape[0])

        batcher = MicroBatcher(predict, max_batch=3, max_wait_s=10.0)
        assert batcher.submit(_request("a"), 0.0) == []
        assert batcher.submit(_request("b"), 0.1) == []
        results = batcher.submit(_request("c"), 0.2)
        assert [r.label_index for r in results] == [0, 1, 2]
        assert calls == [3]
        assert batcher.depth == 0

    def test_flush_on_deadline(self):
        batcher = MicroBatcher(lambda x: np.zeros(len(x), dtype=int),
                               max_batch=100, max_wait_s=0.5)
        batcher.submit(_request("a", now=1.0), 1.0)
        assert not batcher.due(1.4)
        assert batcher.poll(1.4) == []
        assert batcher.due(1.5)
        results = batcher.poll(1.6)
        assert len(results) == 1
        assert results[0].flushed_at == 1.6
        assert batcher.poll(1.7) == []  # nothing pending

    def test_identical_windows_coalesce_to_one_row(self):
        shapes = []

        def predict(x):
            shapes.append(x.shape[0])
            return np.arange(x.shape[0]) + 7

        batcher = MicroBatcher(predict, max_batch=4, max_wait_s=1.0)
        batcher.submit(_request("same", sid="u1"), 0.0)
        batcher.submit(_request("same", sid="u2"), 0.0)
        batcher.submit(_request("same", sid="u3"), 0.0)
        results = batcher.submit(_request("other", sid="u4"), 0.0)
        assert shapes == [2]  # 4 requests, 2 unique windows
        by_sid = {r.request.session_id: r.label_index for r in results}
        assert by_sid == {"u1": 7, "u2": 7, "u3": 7, "u4": 8}

    def test_failure_degrades_and_opens_breaker(self):
        def predict(x):
            raise RuntimeError("model crashed")

        breaker = CircuitBreaker(failure_threshold=1, recovery_s=5.0)
        batcher = MicroBatcher(predict, max_batch=1, breaker=breaker)
        results = batcher.submit(_request("a"), 0.0)
        assert results[0].degraded and results[0].label_index is None
        assert breaker.state == OPEN
        # While open, flushes shed without calling the model at all.
        results = batcher.submit(_request("b"), 1.0)
        assert results[0].degraded
        assert batcher.degraded_flushes == 2

    def test_breaker_recovery_restores_service(self):
        healthy = [False]

        def predict(x):
            if not healthy[0]:
                raise RuntimeError("down")
            return np.zeros(len(x), dtype=int)

        breaker = CircuitBreaker(failure_threshold=1, recovery_s=2.0)
        batcher = MicroBatcher(predict, max_batch=1, breaker=breaker)
        assert batcher.submit(_request("a"), 0.0)[0].degraded
        healthy[0] = True
        # Past recovery_s the half-open probe succeeds and closes it.
        results = batcher.submit(_request("b"), 3.0)
        assert not results[0].degraded
        assert breaker.state == CLOSED

    def test_invalid_config(self):
        predict = lambda x: np.zeros(len(x), dtype=int)  # noqa: E731
        with pytest.raises(ValueError):
            MicroBatcher(predict, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(predict, max_wait_s=-1.0)


class TestSessionManager:
    def test_create_touch_and_order(self):
        manager = SessionManager(idle_ttl_s=10.0)
        manager.get_or_create("a", 0.0)
        manager.get_or_create("b", 1.0)
        manager.get_or_create("a", 2.0)  # touch re-orders
        assert manager.ids() == ["b", "a"]
        assert manager.created == 2

    def test_idle_eviction(self):
        manager = SessionManager(idle_ttl_s=5.0)
        manager.get_or_create("old", 0.0)
        manager.get_or_create("fresh", 4.0)
        assert manager.evict_idle(6.0) == 1
        assert "old" not in manager and "fresh" in manager
        with pytest.raises(SessionEvictedError):
            manager.get("old")

    def test_lru_cap_eviction(self, monkeypatch):
        monkeypatch.setattr(sessions_module, "MAX_SESSIONS", 2)
        manager = SessionManager(idle_ttl_s=100.0)
        manager.get_or_create("a", 0.0)
        manager.get_or_create("b", 1.0)
        manager.get_or_create("c", 2.0)  # evicts "a"
        assert manager.ids() == ["b", "c"]
        assert manager.evicted_lru == 1

    def test_degraded_labels_do_not_vote(self):
        manager = SessionManager(idle_ttl_s=10.0)
        session = manager.get_or_create("u", 0.0)
        for t in range(3):  # enough live votes to commit "happy"
            session.deliver("happy", float(t), degraded=False)
        for t in range(3, 8):
            session.deliver("angry", float(t), degraded=True)
        # Degraded evidence was withheld; the stream saw only "happy".
        assert session.manager.current_emotion == "happy"
        assert session.degraded_windows == 5
        assert session.windows == 8
        assert session.fallback_label == "happy"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SessionManager(idle_ttl_s=0.0)
        assert sessions_module.MAX_SESSIONS >= 1


class TestAffectServer:
    def _server(self, pipeline, **overrides) -> AffectServer:
        defaults = dict(max_batch=4, max_wait_s=0.5, max_queue=64,
                        idle_ttl_s=100.0, stale_ttl_s=None)
        defaults.update(overrides)
        return AffectServer(pipeline, ServeConfig(**defaults))

    def test_requires_trained_pipeline(self):
        with pytest.raises(ValueError):
            AffectServer(AffectClassifierPipeline("mlp", seed=0))

    def test_served_labels_match_sequential_classification(self, pipeline,
                                                           waves):
        server = self._server(pipeline)
        results = []
        for i, wave in enumerate(waves):
            results += server.submit(f"user-{i % 2}", wave, now=0.1 * i)
        results += server.drain(now=1.0)
        assert len(results) == len(waves)
        expected = {i: pipeline.classify_waveform(w)
                    for i, w in enumerate(waves)}
        for result in sorted(results, key=lambda r: r.seq):
            assert not result.degraded and not result.shed
            assert result.label == expected[result.seq]

    def test_cache_hit_skips_dsp_and_inference(self, pipeline, waves):
        server = self._server(pipeline, max_batch=1)
        first = server.submit("u1", waves[0], now=0.0)
        assert len(first) == 1 and not first[0].cached
        flushes_before = server.batcher.flushes
        # Same window from another session: served from cache, no flush.
        second = server.submit("u2", waves[0], now=0.1)
        assert len(second) == 1 and second[0].cached
        assert second[0].label == first[0].label
        assert second[0].latency_s == 0.0
        assert server.batcher.flushes == flushes_before

    def test_poll_flushes_on_deadline_and_evicts_idle(self, pipeline, waves):
        server = self._server(pipeline, max_batch=100, max_wait_s=0.5,
                              idle_ttl_s=2.0)
        assert server.submit("u1", waves[0], now=0.0) == []
        assert server.poll(now=0.4) == []
        results = server.poll(now=0.6)
        assert len(results) == 1 and results[0].completed_at == 0.6
        assert len(server.sessions) == 1
        server.poll(now=10.0)
        assert len(server.sessions) == 0

    def test_overload_sheds_to_fallback_never_drops(self, pipeline, waves):
        server = self._server(pipeline, max_batch=100, max_wait_s=10.0,
                              max_queue=3)
        results = []
        for i in range(8):
            results += server.submit(f"u{i}", waves[i], now=0.0)
        shed = [r for r in results if r.shed]
        assert len(shed) == 5  # queue holds 3, the rest shed immediately
        for result in shed:
            assert result.degraded
            assert result.label == server.neutral_label  # no last-good yet
        results += server.drain(now=1.0)
        assert server.dropped == 0
        assert server.submitted == len(results) == 8

    def test_batch_failure_degrades_to_session_fallback(self, pipeline,
                                                        waves):
        server = self._server(pipeline, max_batch=1)
        good = server.submit("u1", waves[0], now=0.0)[0]
        assert not good.degraded
        server.batcher.predict_batch = lambda x: (_ for _ in ()).throw(
            RuntimeError("model crashed")
        )
        degraded = server.submit("u1", waves[1], now=1.0)[0]
        assert degraded.degraded
        assert degraded.label == good.label  # last live label, not neutral
        stats = server.stats()
        assert stats["degraded_flushes"] == 1
        assert not stats["healthy"] or stats["breaker_state"] == CLOSED

    def test_stats_shape(self, pipeline, waves):
        server = self._server(pipeline)
        server.submit("u1", waves[0], now=0.0)
        server.drain(now=1.0)
        stats = server.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["dropped"] == 0 and stats["healthy"]
        assert stats["sessions_active"] == 1

    def test_concurrent_submitters_account_exactly(self, pipeline, waves):
        server = self._server(pipeline, max_batch=8, max_wait_s=0.1)
        results, errors = [], []
        lock = threading.Lock()

        def drive(worker: int) -> None:
            try:
                for i in range(16):
                    out = server.submit(f"w{worker}", waves[(worker + i) % 8],
                                        now=float(i))
                    with lock:
                        results.extend(out)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results.extend(server.drain(now=100.0))
        assert errors == []
        assert server.submitted == 64
        assert len(results) == 64
        assert server.dropped == 0


class TestMicroBatcherConcurrency:
    def test_depth_and_gauge_consistent_under_storm(self):
        # Regression: ``depth`` used to read the pending list without
        # the lock, and the flush reported its queue-depth gauge delta
        # outside the drain, so admission checks could race a flush.
        from repro.obs import get_registry

        gauge_before = get_registry().snapshot()["gauges"].get(
            "serve.queue_depth", 0.0
        )
        batcher = MicroBatcher(lambda x: np.zeros(len(x), dtype=int),
                               max_batch=4, max_wait_s=100.0)
        results: list[object] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def storm(worker: int) -> None:
            try:
                for i in range(60):
                    out = batcher.submit(
                        _request(f"w{worker}-{i}", sid=f"w{worker}",
                                 seq=i), 0.0,
                    )
                    out += batcher.flush(0.0) if i % 7 == 0 else []
                    with lock:
                        results.extend(out)
                    assert batcher.depth >= 0
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=storm, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results.extend(batcher.flush(0.0))
        assert errors == []
        assert len(results) == 4 * 60
        assert batcher.depth == 0
        gauge_after = get_registry().snapshot()["gauges"].get(
            "serve.queue_depth", 0.0
        )
        # Every +1 submit was matched by a drain's -1 from the same
        # snapshot: the gauge nets out to exactly where it started.
        assert gauge_after == pytest.approx(gauge_before)


class TestFlushTimeDsp:
    def _raw_request(self, key: str, sid: str = "s",
                     value: float = 1.0) -> BatchRequest:
        return BatchRequest(session_id=sid, key=key,
                            signal=np.full(64, value))

    def test_unique_raw_signals_prepared_once(self):
        calls: list[int] = []

        def prepare(signals):
            calls.append(len(signals))
            return np.stack([np.full((2, 3), s[0]) for s in signals])

        batcher = MicroBatcher(lambda x: np.arange(len(x)),
                               max_batch=10, max_wait_s=10.0,
                               prepare_batch=prepare)
        # Three sessions, two distinct windows: DSP runs once, over the
        # two unique signals only.
        batcher.submit(self._raw_request("a", sid="u1", value=1.0), 0.0)
        batcher.submit(self._raw_request("a", sid="u2", value=1.0), 0.0)
        batcher.submit(self._raw_request("b", sid="u3", value=2.0), 0.0)
        results = batcher.flush(0.0)
        assert calls == [2]
        assert [r.label_index for r in results] == [0, 0, 1]
        for result in results:
            assert result.features is not None
            assert not result.degraded

    def test_prepared_features_skip_dsp(self):
        def prepare(signals):  # pragma: no cover - must not run
            raise AssertionError("DSP ran for an already-prepared row")

        batcher = MicroBatcher(lambda x: np.zeros(len(x), dtype=int),
                               max_batch=10, max_wait_s=10.0,
                               prepare_batch=prepare)
        batcher.submit(_request("a"), 0.0)
        results = batcher.flush(0.0)
        assert len(results) == 1 and not results[0].degraded

    def test_dsp_failure_degrades_whole_flush(self):
        from repro.obs import get_registry

        def prepare(signals):
            raise RuntimeError("front end fell over")

        predict_calls: list[int] = []

        def predict(x):  # pragma: no cover - must not run
            predict_calls.append(len(x))
            return np.zeros(len(x), dtype=int)

        batcher = MicroBatcher(predict, max_batch=10, max_wait_s=10.0,
                               prepare_batch=prepare)
        batcher.submit(self._raw_request("a"), 0.0)
        batcher.submit(self._raw_request("b"), 0.0)
        results = batcher.flush(0.0)
        assert predict_calls == []
        assert [r.label_index for r in results] == [None, None]
        assert all(r.degraded for r in results)
        assert batcher.degraded_flushes == 1
        counters = get_registry().snapshot()["counters"]
        assert counters.get("serve.batch.dsp_failures", 0) >= 1

    def test_raw_signal_without_hook_degrades(self):
        batcher = MicroBatcher(lambda x: np.zeros(len(x), dtype=int),
                               max_batch=10, max_wait_s=10.0)
        batcher.submit(self._raw_request("a"), 0.0)
        results = batcher.flush(0.0)
        assert results[0].degraded and results[0].label_index is None


class TestInt8ServePath:
    def test_server_defaults_to_quantized_model(self, pipeline):
        server = AffectServer(pipeline, ServeConfig())
        assert server.batcher.predict_batch.__self__ is pipeline.quantize()

    def test_float_path_opt_out(self, pipeline):
        server = AffectServer(pipeline, ServeConfig(quantized=False))
        assert (server.batcher.predict_batch.__self__
                is pipeline.classifier)

    def test_quantized_and_float_serving_agree(self, pipeline, waves):
        def run(quantized: bool) -> list[str]:
            server = AffectServer(pipeline, ServeConfig(
                max_batch=4, max_wait_s=0.5, idle_ttl_s=100.0,
                stale_ttl_s=None, quantized=quantized,
            ))
            results = []
            for i, wave in enumerate(waves):
                results += server.submit(f"u{i % 3}", wave, now=0.1 * i)
            results += server.drain(now=10.0)
            return [r.label for r in sorted(results, key=lambda r: r.seq)]

        assert run(True) == run(False)

    def test_flush_backfills_cache_features_and_label(self, pipeline,
                                                      waves):
        from repro.serve.cache import CacheEntry

        server = AffectServer(pipeline, ServeConfig(
            max_batch=100, max_wait_s=10.0, idle_ttl_s=100.0,
            stale_ttl_s=None,
        ))
        key = window_hash(waves[0])
        assert server.submit("u1", waves[0], now=0.0) == []
        entry = server.cache.peek(key)
        # DSP is deferred: the placeholder entry dedups concurrent
        # submits but carries no features until the flush pays for them.
        assert isinstance(entry, CacheEntry)
        assert entry.features is None and entry.label is None
        results = server.drain(now=1.0)
        assert len(results) == 1 and not results[0].degraded
        entry = server.cache.peek(key)
        assert entry.features is not None
        assert entry.label == results[0].label
        expected = pipeline.prepare_waveform(waves[0])
        np.testing.assert_array_equal(entry.features, expected)


class TestServeBenchSmoke:
    def test_small_run_accounts_and_reports(self, pipeline):
        from repro.serve.bench import run_serve_bench

        report = run_serve_bench(sessions=4, seconds=1.0, seed=1,
                                 max_batch=8, pipeline=pipeline)
        acct = report["accounting"]
        assert acct["dropped"] == 0
        assert acct["submitted"] == acct["completed"] + acct["shed"]
        assert report["sequential"]["windows"] == report["served"]["windows"]
        assert report["speedup"] > 0.0

    def test_parity_gates_pass_on_bench_pool(self, pipeline):
        from repro.serve.bench import run_serve_bench

        report = run_serve_bench(sessions=2, seconds=0.5, seed=0,
                                 max_batch=4, pipeline=pipeline)
        parity = report["parity"]
        assert parity["dsp_batch_vs_single_ok"]
        assert parity["dsp_max_abs_diff"] == 0.0
        assert parity["int8_vs_float_ok"]
        assert parity["ok"]


class TestEvictionAndOutcomes:
    """The daemon-facing serve surface: evict(), outcomes, no resurrection."""

    def _server(self, pipeline, **overrides) -> AffectServer:
        defaults = dict(max_batch=64, max_wait_s=60.0, max_queue=64,
                        idle_ttl_s=100.0, stale_ttl_s=None)
        defaults.update(overrides)
        return AffectServer(pipeline, ServeConfig(**defaults))

    def test_evict_drops_session_and_counts_reason(self, pipeline, waves):
        from repro.obs import get_registry, labeled

        server = self._server(pipeline)
        server.submit("u-a", waves[0], now=0.0)
        before = get_registry().counter(
            labeled("serve.sessions.preempted", reason="ops-kill")
        ).value
        session = server.sessions.evict("u-a", reason="ops-kill")
        assert session is not None and session.session_id == "u-a"
        assert "u-a" not in server.sessions
        assert server.sessions.preempted >= 1
        after = get_registry().counter(
            labeled("serve.sessions.preempted", reason="ops-kill")
        ).value
        assert after == before + 1
        # Absent sessions are a no-op, not an error.
        assert server.sessions.evict("u-a") is None

    def test_peek_does_not_create_or_touch(self, pipeline, waves):
        server = self._server(pipeline)
        assert server.sessions.peek("ghost") is None
        assert "ghost" not in server.sessions
        server.submit("u-b", waves[0], now=0.0)
        assert server.sessions.peek("u-b") is not None

    def test_preemption_during_inflight_submit_never_resurrects(
            self, pipeline, waves):
        # The daemon's race: a window is in flight (pending in the
        # batcher) when the session is preempted from another thread.
        # The flush must deliver a well-formed result to the evicted
        # session -- and must NOT recreate the session table entry.
        from repro.obs import get_registry

        server = self._server(pipeline)
        assert server.submit("u-race", waves[0], now=0.0) == []
        assert server.pending == 1

        orphans_before = get_registry().counter(
            "serve.orphaned_results"
        ).value
        evicted = threading.Event()
        results: list = []

        def drainer():
            evicted.wait(timeout=5.0)
            results.extend(server.drain(now=1.0))

        thread = threading.Thread(target=drainer)
        thread.start()
        assert server.sessions.evict("u-race", reason="preempted")
        evicted.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

        assert len(results) == 1
        assert results[0].session_id == "u-race"
        assert results[0].label  # well-formed, accounted answer
        assert "u-race" not in server.sessions  # never resurrected
        assert server.dropped == 0
        assert get_registry().counter(
            "serve.orphaned_results"
        ).value == orphans_before + 1

    def test_takeover_answers_each_window_for_its_own_session(
            self, pipeline, waves):
        # The daemon's takeover in process: two windows of session "x"
        # are pending when it is evicted and a new session takes the id.
        # The drain answers each window under the tag and the session it
        # was submitted with, so the new session sees only its own.
        from repro.obs import get_registry

        orphans = get_registry().counter("serve.orphaned_results")
        orphans_before = orphans.value
        server = self._server(pipeline)
        assert server.submit("x", waves[0], now=0.0, tag="old-0") == []
        assert server.submit("x", waves[1], now=0.1, tag="old-1") == []
        old = server.sessions.evict("x", reason="takeover")
        assert server.submit("x", waves[2], now=0.2, tag="new-0") == []
        fresh = server.sessions.get("x")
        results = server.drain(now=1.0)
        assert {r.tag: r.label for r in results} == {
            tag: pipeline.classify_waveform(wave)
            for tag, wave in zip(("old-0", "old-1", "new-0"), waves)
        }
        assert fresh.windows == 1
        assert old.windows == 2
        assert server.sessions.peek("x") is fresh
        assert orphans.value == orphans_before + 2

    def test_repeated_evict_submit_race_never_leaks(self, pipeline, waves):
        server = self._server(pipeline, max_batch=1)
        stop = threading.Event()

        def evictor():
            while not stop.is_set():
                server.sessions.evict("u-hammer")

        thread = threading.Thread(target=evictor)
        thread.start()
        try:
            for i in range(50):
                server.submit("u-hammer", waves[i % len(waves)],
                              now=0.01 * i)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        server.drain(now=10.0)
        server.sessions.evict("u-hammer")
        assert "u-hammer" not in server.sessions
        assert server.dropped == 0

    def test_outcome_field_for_each_path(self, pipeline, waves):
        server = self._server(pipeline, max_batch=1)
        completed = server.submit("u-o1", waves[0], now=0.0)
        assert completed[0].outcome == "completed"
        cached = server.submit("u-o2", waves[0], now=0.1)
        assert cached[0].outcome == "cached"

        slow = self._server(pipeline, max_queue=1)
        assert slow.submit("u-p", waves[1], now=0.0) == []
        shed = slow.submit("u-q", waves[2], now=0.1)
        assert shed[0].outcome == "shed" and shed[0].shed
        flushed = slow.drain(now=1.0)
        assert [r.outcome for r in flushed] == ["completed"]


class ServeMachine(RuleBasedStateMachine):
    """Submits, evictions, polls and drains over one :class:`AffectServer`.

    Every window carries a unique tag; the machine records which session
    each tag was sent under and how many windows each live session was
    sent since it was created.
    """

    SESSIONS = ("a", "b", "c")

    def __init__(self, pipeline, windows) -> None:
        super().__init__()
        self.server = AffectServer(pipeline, ServeConfig(
            max_batch=3, max_wait_s=0.5, max_queue=64, idle_ttl_s=100.0,
            stale_ttl_s=None,
        ))
        self.windows = windows
        self.labels = [pipeline.classify_waveform(w) for w in windows]
        self.now = 0.0
        self.sent: dict[int, tuple[str, int]] = {}  # tag -> (session, window)
        self.answered: set[int] = set()
        self.since_created = dict.fromkeys(self.SESSIONS, 0)

    def _answer(self, results) -> None:
        for result in results:
            assert result.tag not in self.answered
            self.answered.add(result.tag)
            session_id, window = self.sent[result.tag]
            assert result.session_id == session_id
            assert result.label == self.labels[window]

    @rule(session_id=st.sampled_from(SESSIONS), window=st.integers(0, 3))
    def submit(self, session_id, window):
        tag = len(self.sent)
        self.sent[tag] = (session_id, window)
        if session_id not in self.server.sessions:
            self.since_created[session_id] = 0
        self.since_created[session_id] += 1
        self._answer(self.server.submit(
            session_id, self.windows[window], self.now, tag))

    @rule(session_id=st.sampled_from(SESSIONS))
    def evict(self, session_id):
        self.server.sessions.evict(session_id)

    @rule(dt=st.sampled_from((0.1, 0.3, 0.6)))
    def poll(self, dt):
        self.now += dt
        self._answer(self.server.poll(self.now))

    @rule()
    def drain(self):
        self._answer(self.server.drain(self.now))

    @invariant()
    def accounting(self):
        server = self.server
        assert server.submitted == (server.completed + server.shed
                                    + server.pending)

    @invariant()
    def live_sessions_hold_only_their_own_windows(self):
        for session_id in self.SESSIONS:
            session = self.server.sessions.peek(session_id)
            if session is not None:
                assert session.windows <= self.since_created[session_id]

    def teardown(self):
        self._answer(self.server.drain(self.now))
        assert self.answered == set(self.sent)


def test_serve_state_machine(pipeline, waves):
    run_state_machine_as_test(
        lambda: ServeMachine(pipeline, waves[:4]),
        settings=settings(max_examples=40, stateful_step_count=25,
                          deadline=None),
    )
