"""Serving benchmark: micro-batched runtime vs sequential classification.

``repro serve-bench`` and ``benchmarks/test_serve_bench.py`` both run
:func:`run_serve_bench`: drive N synthetic concurrent sessions through
the :class:`~repro.serve.runtime.AffectServer` and through the naive
baseline — a sequential ``classify_waveform`` loop over the *identical*
window schedule — and compare wall-clock throughput (windows/sec).

The synthetic workload models what multi-tenant traffic actually looks
like: each session emits one window per period (with a per-session phase
offset), and window *content* is drawn from a bounded pool of distinct
utterances, so concurrent sessions frequently carry the same window —
the redundancy that window-hash caching and in-batch coalescing exploit.
Everything is seeded and scheduled on virtual workload time; only the
throughput/latency measurements touch the wall clock.
"""

from __future__ import annotations

import re
import time
from typing import Any

import numpy as np

from repro.affect.pipeline import AffectClassifierPipeline
from repro.obs import get_registry, get_tracer
from repro.obs.prof import HeapProfiler, StackSampler
from repro.obs.trace import Span, pop_thread_stage, push_thread_stage
from repro.serve.runtime import AffectServer, ServeConfig

#: Virtual seconds between one session's consecutive windows.
WINDOW_PERIOD_S = 0.5
#: Distinct utterances the synthetic traffic draws from.
POOL_SIZE = 24
#: Batch deadline of the bench's server (workload seconds).
MAX_WAIT_S = 0.25


def train_bench_pipeline(seed: int = 0,
                         architecture: str = "mlp") -> AffectClassifierPipeline:
    """The small classifier every bench configuration shares."""
    from repro.datasets import emovo_like

    corpus = emovo_like(n_per_class=4, seed=seed)
    pipeline = AffectClassifierPipeline(architecture, seed=seed)
    pipeline.train(corpus, epochs=3)
    return pipeline


def make_pool(label_names: tuple[str, ...], pool_size: int,
              seed: int) -> tuple[list[np.ndarray], list[str]]:
    """``pool_size`` distinct utterances cycling over the label set.

    Window ``i`` is synthesized *from* label ``label_names[i % n]``, so
    the second list, each window's label, is its ground truth.
    """
    from repro.datasets.speech import synthesize_utterance

    truths = [label_names[i % len(label_names)] for i in range(pool_size)]
    pool = [
        synthesize_utterance(
            truths[i], actor=i % 4, sentence=i % 3, take=i, seed=seed,
        )
        for i in range(pool_size)
    ]
    return pool, truths


def _make_schedule(
    sessions: int, seconds: float, seed: int, pool_size: int,
    period_s: float = WINDOW_PERIOD_S,
) -> list[tuple[float, str, int]]:
    """Time-ordered ``(now, session_id, pool_index)`` arrival events."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, period_s, size=sessions)
    events: list[tuple[float, str, int]] = []
    ticks = int(np.ceil(seconds / period_s))
    for k in range(ticks):
        for s in range(sessions):
            now = k * period_s + float(offsets[s])
            if now >= seconds:
                continue
            events.append((now, f"user-{s:04d}", int(rng.integers(pool_size))))
    events.sort(key=lambda e: e[0])
    return events


#: Canonical labeled-series key for per-stage serve latencies.
_STAGE_KEY = re.compile(r'^serve\.stage_s\{stage="(?P<stage>[^"]+)"\}$')


def _stage_summaries() -> dict[str, dict[str, float]]:
    """Per-stage latency summaries (``serve.stage_s{stage=...}``).

    Read from the process registry, so the numbers cover everything
    served since the last reset — the CLI resets per run, the grid per
    cell.
    """
    histograms = get_registry().snapshot()["histograms"]
    stages: dict[str, dict[str, float]] = {}
    for key, summary in histograms.items():
        match = _STAGE_KEY.match(key)
        if match is not None:
            stages[match.group("stage")] = summary
    return stages


def _quantiles(values: list[float]) -> dict[str, float]:
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    array = np.asarray(values)
    return {
        "p50": float(np.quantile(array, 0.50)),
        "p95": float(np.quantile(array, 0.95)),
        "p99": float(np.quantile(array, 0.99)),
        "mean": float(array.mean()),
    }


def run_sequential_baseline(
    pipeline: AffectClassifierPipeline,
    pool: list[np.ndarray],
    schedule: list[tuple[float, str, int]],
) -> dict[str, object]:
    """The no-serving-layer path: one ``classify_waveform`` per window."""
    start = time.perf_counter()
    for _, _, pool_index in schedule:
        pipeline.classify_waveform(pool[pool_index])
    wall_s = time.perf_counter() - start
    windows = len(schedule)
    return {
        "windows": windows,
        "wall_s": wall_s,
        "windows_per_s": windows / wall_s if wall_s > 0 else 0.0,
    }


#: Minimum float-vs-int8 label agreement for the parity gate to pass.
INT8_AGREEMENT_FLOOR = 0.98


def check_parity(
    pipeline: AffectClassifierPipeline,
    pool: list[np.ndarray],
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> dict[str, object]:
    """The two gates guarding the batched int8 serve path.

    - **batch-vs-single DSP**: every pool window prepared through
      :meth:`~repro.affect.pipeline.AffectClassifierPipeline.
      prepare_waveforms` (the flush path) must match the per-window
      :meth:`prepare_waveform` reference within ``rtol``/``atol`` (in
      practice the two paths are bitwise identical — the batch front end
      reuses the single path's arithmetic).
    - **float-vs-int8 labels**: the quantized model the serve runtime
      defaults to must agree with float-weight labels on at least
      :data:`INT8_AGREEMENT_FLOOR` of the pool.

    ``ok`` is the conjunction; the serve bench refuses to report a
    throughput win that was bought with wrong answers.
    """
    clf = pipeline.classifier
    assert clf is not None
    single = np.stack([pipeline.prepare_waveform(s) for s in pool])
    batched = pipeline.prepare_waveforms(pool)
    dsp_ok = bool(np.allclose(single, batched, rtol=rtol, atol=atol))
    dsp_max_abs_diff = float(np.max(np.abs(single - batched)))
    float_labels = np.asarray(clf.predict_labels(batched))
    int8_labels = np.asarray(pipeline.quantize().predict_batch(batched))
    agreement = float(np.mean(float_labels == int8_labels))
    int8_ok = agreement >= INT8_AGREEMENT_FLOOR
    return {
        "windows": len(pool),
        "dsp_batch_vs_single_ok": dsp_ok,
        "dsp_max_abs_diff": dsp_max_abs_diff,
        "int8_label_agreement": agreement,
        "int8_vs_float_ok": int8_ok,
        "ok": dsp_ok and int8_ok,
    }


def run_serve_bench(
    sessions: int = 16,
    seconds: float = 4.0,
    seed: int = 0,
    max_batch: int = 32,
    pipeline: AffectClassifierPipeline | None = None,
    baseline: bool = True,
    parity: bool = True,
    on_tick=None,
) -> dict[str, object]:
    """Drive one serving configuration; returns a JSON-able report.

    The report's ``accounting`` section carries the CI contract: every
    submitted window must come back either completed or explicitly shed
    (``dropped == 0``), and ``parity`` carries the correctness contract
    (:func:`check_parity` over the window pool — disable only for
    timing-sensitive harnesses like the trace-overhead probe).
    ``on_tick(server, now)``, when given, runs after every poll — the
    monitoring-overhead probe hooks its alert manager and flight
    recorder here.
    """
    if pipeline is None:
        pipeline = train_bench_pipeline(seed=seed)
    clf = pipeline.classifier
    assert clf is not None
    pool, _ = make_pool(clf.label_names, POOL_SIZE, seed)
    schedule = _make_schedule(sessions, seconds, seed, POOL_SIZE)
    parity_report = check_parity(pipeline, pool) if parity else None

    config = ServeConfig(
        max_batch=max_batch,
        max_wait_s=MAX_WAIT_S,
        max_queue=max(max_batch * 8, 256),
        idle_ttl_s=max(seconds, 10.0),
        stale_ttl_s=None,
    )
    server = AffectServer(pipeline, config)
    results = []
    start = time.perf_counter()
    for now, session_id, pool_index in schedule:
        results.extend(server.poll(now))
        if on_tick is not None:
            on_tick(server, now)
        results.extend(server.submit(session_id, pool[pool_index], now))
    results.extend(server.drain(seconds + MAX_WAIT_S))
    wall_s = time.perf_counter() - start

    windows = len(schedule)
    completed = [r for r in results if not r.shed]
    shed = [r for r in results if r.shed]
    report: dict[str, object] = {
        "config": {
            "sessions": sessions,
            "seconds": seconds,
            "seed": seed,
            "max_batch": max_batch,
            "max_wait_s": MAX_WAIT_S,
            "pool_size": POOL_SIZE,
            "window_period_s": WINDOW_PERIOD_S,
            "quantized": config.quantized,
        },
        "served": {
            "windows": windows,
            "wall_s": wall_s,
            "windows_per_s": windows / wall_s if wall_s > 0 else 0.0,
            "latency_s": _quantiles([r.latency_s for r in completed]),
            "cached": sum(1 for r in completed if r.cached),
            "degraded": sum(1 for r in completed if r.degraded),
            "cache_hit_rate": server.cache.hit_rate,
            "batch_flushes": server.batcher.flushes,
            "mean_batch": (
                server.batcher.rows_flushed / max(server.batcher.flushes, 1)
            ),
            "coalesced_rows": (
                server.batcher.rows_flushed - server.batcher.unique_rows_flushed
            ),
            "sessions_active": len(server.sessions),
            "stages": _stage_summaries(),
        },
        "accounting": {
            "submitted": server.submitted,
            "completed": server.completed,
            "shed": len(shed),
            "pending_after_drain": server.pending,
            "dropped": server.dropped,
        },
    }
    if parity_report is not None:
        report["parity"] = parity_report
    if baseline:
        seq = run_sequential_baseline(pipeline, pool, schedule)
        report["sequential"] = seq
        report["speedup"] = (
            report["served"]["windows_per_s"] / seq["windows_per_s"]
            if seq["windows_per_s"] else 0.0
        )
    return report


def run_trace_workload(
    sessions: int = 8,
    seconds: float = 2.0,
    seed: int = 0,
    max_batch: int = 8,
    sample_rate: float = 1.0,
    pipeline: AffectClassifierPipeline | None = None,
) -> tuple[dict[str, object], list[Span]]:
    """The canned multi-session workload with tracing on.

    Clears the process tracer, reseeds its deterministic ID stream, runs
    :func:`run_serve_bench` (no sequential baseline), and returns the
    bench report plus every finished span — the input for the Perfetto /
    JSONL exporters and the ``repro trace`` tree view.
    """
    tracer = get_tracer()
    previous = tracer.configure(sample_rate=sample_rate, seed=seed)
    tracer.clear()
    try:
        report = run_serve_bench(
            sessions=sessions, seconds=seconds, seed=seed,
            max_batch=max_batch, pipeline=pipeline, baseline=False,
            parity=False,
        )
        return report, tracer.spans
    finally:
        tracer.configure(**previous)


def run_profile_workload(
    sessions: int = 16,
    seconds: float = 4.0,
    seed: int = 0,
    max_batch: int = 32,
    heap: bool = True,
) -> dict[str, Any]:
    """The traced workload under the profiler — what ``repro profile`` runs.

    :func:`run_trace_workload` at full tracing, so every window's stage
    scopes feed the attribution table; the schedule loop itself runs
    under a ``serve.bench`` driver stage, so driver time between submits
    is attributed rather than dark.  Returns the bench report plus
    profile and heap sections and the acceptance figure
    ``attribution['fraction']`` (the CLI gates it at ≥0.90).
    """
    pipeline = train_bench_pipeline(seed=seed)
    registry = get_registry()
    registry.reset()
    heap_profiler = HeapProfiler(registry=registry).start() if heap else None
    sampler = StackSampler(registry=registry, heap=heap_profiler).start()
    push_thread_stage("serve.bench")
    try:
        report, spans = run_trace_workload(sessions, seconds, seed,
                                           max_batch, pipeline=pipeline)
    finally:
        pop_thread_stage()
        sampler.stop()
        heap_report = None
        if heap_profiler is not None:
            heap_profiler.sample()
            heap_report = heap_profiler.report()
            heap_profiler.stop()
    stats = sampler.stats()
    return {
        "workload": {
            "sessions": sessions,
            "seconds": seconds,
            "seed": seed,
            "max_batch": max_batch,
            "windows_per_s": report["served"].get("windows_per_s"),
            "wall_s": report["served"].get("wall_s"),
        },
        "profile": stats,
        "heap": heap_report,
        "attribution": {
            "fraction": stats["attributed_fraction"],
            "samples": stats["samples"],
            "stages": stats["stage_samples"],
        },
        "_sampler": sampler,
        "_heap": heap_profiler,
        "_spans": spans,
    }


def serve_chain_coverage(spans: list[Span]) -> dict[str, object]:
    """How many completed windows carry a full, consistent span chain.

    A completed (non-shed) ``serve.window`` trace is *covered* when

    - every non-root span's ``parent_id`` resolves inside its trace, and
    - the expected stage chain is present: a ``cache.hit`` event on the
      root plus ``serve.controller`` for cache hits, ``serve.batch`` (+
      ``serve.predict`` unless the flush degraded) →
      ``serve.controller`` otherwise.

    This is the PR's acceptance metric: ``coverage`` must stay ≥ 0.95 on
    the canned workload.
    """
    by_trace: dict[str, list[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    windows = 0
    covered = 0
    for members in by_trace.values():
        roots = [s for s in members if s.name == "serve.window"]
        if not roots:
            continue
        root = roots[0]
        if root.attrs.get("shed"):
            continue
        windows += 1
        ids = {s.span_id for s in members}
        consistent = all(
            s.parent_id is None or s.parent_id in ids for s in members
        )
        names = {s.name for s in members}
        if root.attrs.get("cached"):
            if not any(e.name == "cache.hit" for e in root.events):
                continue
            chain = {"serve.controller"}
        elif root.attrs.get("degraded"):
            chain = {"serve.batch", "serve.controller"}
        else:
            chain = {"serve.batch", "serve.predict", "serve.controller"}
        if consistent and chain <= names:
            covered += 1
    return {
        "windows": windows,
        "covered": covered,
        "coverage": covered / windows if windows else 1.0,
    }


def run_serve_grid(
    batch_sizes: tuple[int, ...] = (1, 8, 32, 128),
    session_counts: tuple[int, ...] = (1, 16, 256),
    seconds: float = 4.0,
    seed: int = 0,
) -> dict[str, object]:
    """The full BENCH_serve grid: batch sizes x session counts.

    One pipeline and, per session count, one sequential baseline are
    shared across the row, so every cell differs only in ``max_batch``.
    """
    pipeline = train_bench_pipeline(seed=seed)
    clf = pipeline.classifier
    assert clf is not None
    pool, _ = make_pool(clf.label_names, POOL_SIZE, seed)
    # Parity is a property of the pipeline + pool, not of any one cell,
    # so the gates run once for the whole grid.
    parity = check_parity(pipeline, pool)
    grid: dict[str, object] = {}
    for sessions in session_counts:
        schedule = _make_schedule(sessions, seconds, seed, POOL_SIZE)
        sequential = run_sequential_baseline(pipeline, pool, schedule)
        row: dict[str, object] = {"sequential": sequential, "batched": {}}
        for max_batch in batch_sizes:
            get_registry().reset()
            cell = run_serve_bench(
                sessions=sessions, seconds=seconds, seed=seed,
                max_batch=max_batch, pipeline=pipeline, baseline=False,
                parity=False,
            )
            cell["speedup"] = (
                cell["served"]["windows_per_s"] / sequential["windows_per_s"]
                if sequential["windows_per_s"] else 0.0
            )
            row["batched"][str(max_batch)] = cell
        grid[str(sessions)] = row
    return {
        "grid": grid,
        "batch_sizes": list(batch_sizes),
        "session_counts": list(session_counts),
        "seconds": seconds,
        "seed": seed,
        "parity": parity,
    }
