"""Micro-batching scheduler: coalesce windows from many sessions.

``Sequential.predict`` is already vectorized over rows, yet every caller
in the single-user reproduction feeds it one window at a time, paying the
full per-call overhead (layer dispatch, softmax, metric accounting) per
window.  The batcher holds arriving feature rows briefly and submits them
as one stacked call:

- **flush-on-full** — the batch reaches ``max_batch`` rows;
- **flush-on-deadline** — the *oldest* pending row has waited
  ``max_wait_s`` of workload time (the paper's real-time constraint caps
  how long a window may age before its decision is useless).

Identical in-flight windows (same content hash) are deduplicated into a
single model row whose result fans back out to every requester.

Requests may arrive carrying a raw ``signal`` instead of prepared
``features``: the flush then runs the DSP front end **once, batched,
over the unique raw windows** (via the ``prepare_batch`` hook, wired to
:meth:`~repro.affect.pipeline.AffectClassifierPipeline.
prepare_waveforms`), so feature extraction is amortised across the batch
and deduplicated windows pay for DSP once instead of once per session.

All scheduling runs on caller-supplied workload time, like the rest of
the repo, so behavior is deterministic and unit-testable; a lock makes
``submit``/``flush`` safe to drive from concurrent threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import CircuitOpenError
from repro.obs import get_registry, labeled
from repro.obs.trace import Span, TraceContext, get_tracer
from repro.resilience import CircuitBreaker
from repro.serve.sessions import Session

_STAGE_PREDICT = labeled("serve.stage_s", stage="predict")
_STAGE_DSP = labeled("serve.stage_s", stage="dsp")


@dataclass
class BatchRequest:
    """One session's window waiting for batched inference.

    Exactly one of ``features``/``signal`` should be set: ``features``
    when the feature row is already prepared (cache carried it from an
    earlier flush), ``signal`` when the raw window still needs the DSP
    front end — which then runs batched at flush time.

    ``root_span``/``batch_span`` carry the window's trace through the
    fan-in: the runtime opens both at submit, the flush links the shared
    batch trace to every member, and the runtime closes them when the
    result fans back out.  ``None`` when tracing is off or unsampled.

    ``session`` and ``tag`` are where the result goes: the
    :class:`~repro.serve.sessions.Session` the window was submitted
    under, and the caller's reply tag.
    """

    session_id: str
    key: str
    submitted_at: float = 0.0
    seq: int = 0
    features: np.ndarray | None = None
    signal: np.ndarray | None = None
    root_span: Span | None = None
    batch_span: Span | None = None
    #: Adaptive model tier serving this request (``None`` = the default
    #: predict path).  Feature rows are still deduplicated *across*
    #: tiers — DSP output is tier-independent — but model rows are not:
    #: the same window served to a full-tier and a degraded-tier session
    #: runs through both models.
    tier: str | None = None
    session: Session | None = None
    tag: object = None


@dataclass
class BatchResult:
    """Outcome of one request after a flush.

    ``label_index`` is the model's class index, or ``None`` when the
    flush degraded (batch inference failed, flush-time DSP failed, or
    the breaker was open).  ``features`` is the prepared feature row the
    flush used for this request (freshly extracted for raw signals), so
    the caller can backfill its cache.  ``flush_context`` identifies the
    shared flush trace serving this request; ``predict_window`` is the
    perf-counter interval of the one batched model call, so per-window
    traces can re-attribute it.
    """

    request: BatchRequest
    label_index: int | None
    degraded: bool
    flushed_at: float
    features: np.ndarray | None = None
    flush_context: TraceContext | None = None
    predict_window: tuple[float, float] | None = None


class MicroBatcher:
    """Accumulates :class:`BatchRequest` rows and flushes them together.

    Parameters
    ----------
    predict_batch:
        ``(n, ...) feature stack -> (n,) int label indices``; called once
        per flush under the circuit breaker.
    prepare_batch:
        ``list of raw signals -> (n, ...) feature stack``; called at most
        once per flush over the unique requests that arrived with a raw
        ``signal`` instead of prepared ``features``.  ``None`` means every
        request must carry features (requests with only a signal then
        degrade).
    max_batch:
        Flush as soon as this many rows are pending (``1`` degenerates to
        immediate per-window inference).
    max_wait_s:
        Workload-time age bound on the oldest pending row.
    breaker:
        Shared :class:`~repro.resilience.CircuitBreaker` guarding the
        model; while open, flushes degrade instead of calling the model.
    tier_predicts:
        Optional per-tier predict functions for the adaptive runtime.
        Requests carrying ``tier=<name>`` are grouped and submitted to
        ``tier_predicts[name]`` instead of ``predict_batch``; each tier
        group is one model call under the shared breaker, and a failing
        group degrades only its own members.
    """

    def __init__(
        self,
        predict_batch: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_wait_s: float = 0.05,
        breaker: CircuitBreaker | None = None,
        prepare_batch: Callable[[list[np.ndarray]], np.ndarray] | None = None,
        tier_predicts: dict[str, Callable[[np.ndarray], np.ndarray]] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.predict_batch = predict_batch
        self.prepare_batch = prepare_batch
        self.tier_predicts = tier_predicts or {}
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.breaker = breaker or CircuitBreaker()
        self.flushes = 0
        self.degraded_flushes = 0
        self.rows_flushed = 0
        self.unique_rows_flushed = 0
        self._pending: list[BatchRequest] = []
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        """Number of pending (unflushed) requests.

        Reads under the lock: an unlocked ``len`` during a racing
        ``flush`` drain could observe the list mid-swap and feed a stale
        depth to the runtime's admission check.
        """
        with self._lock:
            return len(self._pending)

    def oldest_deadline(self) -> float | None:
        """Workload time at which the oldest pending row expires."""
        with self._lock:
            if not self._pending:
                return None
            return self._pending[0].submitted_at + self.max_wait_s

    def submit(self, request: BatchRequest, now: float) -> list[BatchResult]:
        """Queue one request; returns flush results when the batch fills."""
        obs = get_registry()
        with self._lock:
            self._pending.append(request)
            obs.add_gauge("serve.queue_depth", 1.0)
            full = len(self._pending) >= self.max_batch
        if full:
            obs.inc("serve.batch.flush_full")
            return self.flush(now)
        return []

    def due(self, now: float) -> bool:
        """Whether a deadline flush is owed at workload time ``now``."""
        deadline = self.oldest_deadline()
        return deadline is not None and now >= deadline

    def poll(self, now: float) -> list[BatchResult]:
        """Flush if (and only if) the oldest row's deadline has passed."""
        if not self.due(now):
            return []
        get_registry().inc("serve.batch.flush_deadline")
        return self.flush(now)

    def flush(self, now: float) -> list[BatchResult]:
        """Run one batched inference over everything pending.

        Identical keys share one *feature* row regardless of tier; model
        rows are grouped per tier and each group is one predict call.  A
        failed DSP pass degrades the whole flush; a failed model call
        (or an open breaker) degrades only its tier group's requests
        (``label_index=None``) — the caller owns the fallback label.

        Tracing: the flush is a *fan-in*, so it gets its own root span
        (``serve.flush``) carrying links to every member window's trace;
        the batched DSP pass is a ``serve.dsp`` child, and each tier
        group's model call is a ``serve.predict`` child whose interval
        is handed back in each :class:`BatchResult` for per-window
        attribution.
        """
        obs = get_registry()
        with self._lock:
            batch, self._pending = self._pending, []
            if batch:
                # Gauge delta comes from the same drained snapshot,
                # inside the lock, so it can never double-count a row
                # against a racing submit's +1.
                obs.add_gauge("serve.queue_depth", -float(len(batch)))
        if not batch:
            return []
        obs.observe("serve.batch.size", len(batch))
        self.flushes += 1
        self.rows_flushed += len(batch)

        row_of: dict[str, int] = {}
        rows: list[np.ndarray | None] = []
        raw: list[tuple[int, np.ndarray]] = []
        for request in batch:
            index = row_of.get(request.key)
            if index is None:
                row_of[request.key] = len(rows)
                if request.features is not None:
                    rows.append(request.features)
                else:
                    rows.append(None)
                    raw.append((len(rows) - 1, request.signal))
            else:
                obs.inc("serve.batch.coalesced")
                if rows[index] is None and request.features is not None:
                    rows[index] = request.features
        obs.observe("serve.batch.unique_rows", len(rows))
        self.unique_rows_flushed += len(rows)

        tracer = get_tracer()
        flush_span = tracer.start_span(
            "serve.flush", workload_time=now, root=True,
            attrs={"batch": len(batch), "unique_rows": len(rows)},
        )
        for request in batch:
            if request.root_span is not None:
                flush_span.add_link(request.root_span.context)

        degraded = False
        dsp_error: Exception | None = None
        raw = [(i, signal) for i, signal in raw if rows[i] is None]
        if raw:
            dsp_start = time.perf_counter()
            with tracer.span("serve.dsp", workload_time=now,
                             parent=flush_span,
                             attrs={"rows": len(raw)}):
                try:
                    if self.prepare_batch is None:
                        raise RuntimeError(
                            "raw-signal request without a prepare_batch hook"
                        )
                    prepared = self.prepare_batch(
                        [signal for _, signal in raw]
                    )
                    for j, (i, _) in enumerate(raw):
                        rows[i] = prepared[j]
                except Exception as exc:
                    degraded = True
                    dsp_error = exc
                    obs.inc("serve.batch.dsp_failures")
            obs.observe(_STAGE_DSP, time.perf_counter() - dsp_start)
            obs.inc("serve.batch.dsp_rows", len(raw))

        # Model rows, grouped per tier: tier -> key -> position in the
        # tier's stacked call.  The all-default case collapses to one
        # group keyed ``None``, preserving the single-predict fast path.
        groups: dict[str | None, dict[str, int]] = {}
        for request in batch:
            positions = groups.setdefault(request.tier, {})
            positions.setdefault(request.key, len(positions))

        group_labels: dict[str | None, np.ndarray | None] = {}
        group_windows: dict[str | None, tuple[float, float]] = {}
        predict_error: Exception | None = None
        if not degraded:
            for tier, positions in groups.items():
                predict = (self.predict_batch if tier is None
                           else self.tier_predicts.get(tier))
                attrs: dict[str, object] = {"rows": len(positions)}
                if tier is not None:
                    attrs["tier"] = tier
                predict_span = tracer.start_span(
                    "serve.predict", workload_time=now, parent=flush_span,
                    attrs=attrs,
                )
                error: Exception | None = None
                labels: np.ndarray | None = None
                start = time.perf_counter()
                try:
                    if predict is None:
                        raise RuntimeError(f"no predict hook for tier {tier!r}")
                    stack = np.stack([rows[row_of[key]] for key in positions])
                    with tracer.activate(predict_span):
                        labels = self.breaker.call(
                            lambda: np.asarray(predict(stack)), now
                        )
                except CircuitOpenError as exc:
                    error = exc
                except Exception as exc:
                    error = exc
                    obs.inc("serve.batch.failures")
                end = time.perf_counter()
                predict_span.end(error=error)
                group_labels[tier] = labels
                group_windows[tier] = (start, end)
                if error is not None:
                    predict_error = predict_error or error
                else:
                    obs.observe("serve.predict_s", end - start)
                    obs.observe(_STAGE_PREDICT, end - start)

        any_degraded = degraded or any(
            labels is None for labels in group_labels.values()
        )
        if any_degraded:
            self.degraded_flushes += 1
            obs.inc("serve.batch.degraded_flushes")
            flush_span.set_attr("degraded", True)
        flush_span.end(error=predict_error or dsp_error)
        flush_context = (flush_span.context if flush_span.context.sampled
                         else None)

        results = []
        for request in batch:
            row = row_of[request.key]
            labels = None if degraded else group_labels.get(request.tier)
            if labels is None:
                index = None
                window = None
            else:
                index = int(labels[groups[request.tier][request.key]])
                window = group_windows[request.tier]
            results.append(BatchResult(
                request, index, labels is None, now,
                features=rows[row],
                flush_context=flush_context,
                predict_window=window,
            ))
        return results
