"""The multi-session affect-serving runtime.

:class:`AffectServer` is the front door that turns the single-user
reproduction into a multi-tenant service:

1. **Admission** — a bounded pending queue.  Over capacity, a request is
   *shed*: the caller immediately receives the session's fallback label
   (last live label, else neutral) marked ``shed=True`` — never silently
   dropped.  The paper's real-time constraint makes this the right
   failure: a late emotion decision is worthless, so under overload the
   runtime answers *now* with the degraded rung of the ladder.
2. **Cache** — a content-hash LRU; a window already classified skips DSP
   *and* inference, a window already prepared (in flight) skips DSP.
3. **Micro-batching** — cache misses join the cross-session batch
   carrying their *raw* signal; the flush runs the DSP front end once,
   batched, over the unique windows and then one vectorized ``predict``
   — by default through the int8-quantized model (the paper's deployed
   configuration; ``ServeConfig.quantized=False`` restores float).
4. **Degradation** — the batched model call runs under a shared
   :class:`~repro.resilience.CircuitBreaker`; failed flushes degrade
   every affected request to its session fallback, and degraded labels
   never vote in the per-session emotion stream.

All scheduling uses caller-supplied workload time (deterministic, like
the rest of the repo); a re-entrant lock makes the public API safe to
drive from multiple threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.affect.pipeline import AffectClassifierPipeline
from repro.obs import get_registry, labeled
from repro.obs.trace import NOOP_SPAN, get_tracer
from repro.resilience import CLOSED, CircuitBreaker
from repro.serve.adaptive import AdaptiveController
from repro.serve.batcher import BatchRequest, BatchResult, MicroBatcher
from repro.serve.cache import CacheEntry, LRUCache, window_hash
from repro.serve.sessions import SessionManager

#: Labeled stage-latency series, built once — ``labeled()`` sorts and
#: joins its labels on every call, which is measurable per window.
#: (The dsp stage series moved to the batcher with flush-time DSP.)
_STAGE_CONTROLLER = labeled("serve.stage_s", stage="controller")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`AffectServer`."""

    max_batch: int = 32
    max_wait_s: float = 0.25
    max_queue: int = 1024
    cache_capacity: int = 2048
    idle_ttl_s: float = 30.0
    stale_ttl_s: float | None = 5.0
    #: Serve flushes through the int8-quantized model (default — the
    #: paper's deployed configuration); ``False`` uses float weights.
    quantized: bool = True


@dataclass
class ServeResult:
    """One served window, as handed back to the session's owner."""

    session_id: str
    label: str
    emotion: str | None
    mode: str | None
    submitted_at: float
    completed_at: float
    shed: bool = False
    degraded: bool = False
    cached: bool = False
    #: Adaptive ladder tier that served this window; ``None`` when the
    #: runtime has no adaptive controller.
    tier: str | None = None
    #: How this window was answered — the structured outcome a network
    #: front end serializes instead of inferring from fallback labels:
    #: ``"completed"`` (a flush served it), ``"cached"`` (window-hash
    #: hit), ``"absorbed"`` (terminal adaptive tier answered instantly),
    #: or ``"shed"`` (admission refused it; degraded fallback answer).
    outcome: str = "completed"
    seq: int = field(default=-1, repr=False)
    #: The reply address the caller passed to :meth:`AffectServer.submit`
    #: with this window, handed back unchanged.
    tag: object = field(default=None, repr=False)

    @property
    def latency_s(self) -> float:
        """Workload-time latency from submission to completion."""
        return self.completed_at - self.submitted_at


class AffectServer:
    """Serve many concurrent emotion sessions over one trained pipeline.

    The caller pumps the runtime: :meth:`submit` for each arriving window
    (which may return immediately completed results — cache hits, sheds,
    or a flush-on-full), :meth:`poll` as workload time advances (deadline
    flushes and idle-session eviction), and :meth:`drain` to force out
    everything pending, e.g. at shutdown.  Every submitted window yields
    exactly one :class:`ServeResult` across those calls, carrying the
    ``tag`` it was submitted with and delivered to the session it was
    submitted under.
    """

    def __init__(
        self,
        pipeline: AffectClassifierPipeline,
        config: ServeConfig | None = None,
        breaker: CircuitBreaker | None = None,
        adaptive: AdaptiveController | None = None,
    ) -> None:
        clf = pipeline.classifier
        if clf is None:
            raise ValueError("pipeline must be trained before serving")
        self.pipeline = pipeline
        self.config = config or ServeConfig()
        self.label_names = clf.label_names
        #: A session's label before it has a live one.
        self.neutral_label = ("neutral" if "neutral" in self.label_names
                              else self.label_names[0])
        self.breaker = breaker or CircuitBreaker()
        self.adaptive = adaptive
        if adaptive is not None:
            # With a controller every request is tier-routed, so the
            # ladder's own predicts replace the quantized/float switch.
            self._top_tier = adaptive.ladder[0].name
            self._terminal_tier = adaptive.ladder[adaptive.ladder.terminal_index].name
            self._tier_windows = {
                name: labeled("serve.tier_windows", tier=name)
                for name in adaptive.ladder.names
            }
            tier_predicts = adaptive.ladder.predict_map()
        else:
            self._top_tier = None
            self._terminal_tier = None
            self._tier_windows = {}
            tier_predicts = None
        if self.config.quantized:
            predict_batch = pipeline.quantize().predict_batch
        else:
            predict_batch = clf.predict_labels
        self.batcher = MicroBatcher(
            predict_batch=predict_batch,
            prepare_batch=pipeline.prepare_waveforms,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            breaker=self.breaker,
            tier_predicts=tier_predicts,
        )
        self.sessions = SessionManager(
            idle_ttl_s=self.config.idle_ttl_s,
            stale_ttl_s=self.config.stale_ttl_s,
            neutral_label=self.neutral_label,
        )
        self.cache = LRUCache(capacity=self.config.cache_capacity)
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: Windows the terminal (cached/neutral) tier answered instantly
        #: instead of queueing — load absorbed rather than shed.
        self.absorbed = 0
        self._seq = 0
        self._lock = threading.RLock()

    # -- ingest ------------------------------------------------------------

    def submit(self, session_id: str, signal: np.ndarray, now: float,
               tag: object = None) -> list[ServeResult]:
        """Accept one raw window from ``session_id`` at workload time ``now``.

        Returns the results this call completed: ``[]`` when the window
        joined the pending batch, one cache-hit/shed result for this
        window, or a whole batch worth when it triggered flush-on-full.
        The window's result carries ``tag``, whichever call returns it.
        """
        obs = get_registry()
        tracer = get_tracer()
        with self._lock:
            self.submitted += 1
            obs.inc("serve.requests")
            session = self.sessions.get_or_create(session_id, now)
            seq = self._seq
            self._seq += 1
            root = tracer.start_span(
                "serve.window", workload_time=now, root=True,
                attrs={"session": session_id, "seq": seq},
            )

            tier = None
            if self.adaptive is not None:
                self.adaptive.observe(obs, now)
                tier = self.adaptive.tier_for(
                    session, now, self.batcher.depth, self.config.max_queue
                )
                root.set_attr("tier", tier.name)
                if tier.terminal:
                    # The terminal rung answers *now*, without queueing:
                    # a cached label when the window is known, else the
                    # session fallback.  This is absorption, not
                    # shedding — it runs even when the queue is full.
                    key = window_hash(signal)
                    entry = self.cache.get(key)
                    cached = (isinstance(entry, CacheEntry)
                              and entry.label is not None)
                    label = entry.label if cached else session.fallback_label
                    self.absorbed += 1
                    self.completed += 1
                    obs.inc("serve.absorbed")
                    obs.inc(self._tier_windows[tier.name])
                    self.adaptive.charge(session, tier.name)
                    root.add_event("tier.absorbed", {
                        "queue_depth": self.batcher.depth,
                        "cached": cached,
                    })
                    emotion = self._deliver(session, label, now,
                                            degraded=not cached, root=root)
                    root.set_attr("degraded", not cached)
                    root.end()
                    return [ServeResult(
                        session_id=session_id, label=label, emotion=emotion,
                        mode=session.manager.decoder_mode(now).value,
                        submitted_at=now, completed_at=now,
                        degraded=not cached, cached=cached,
                        tier=tier.name, outcome="absorbed", seq=seq, tag=tag,
                    )]

            if self.batcher.depth >= self.config.max_queue:
                self.shed += 1
                session.shed_windows += 1
                obs.inc("serve.shed")
                if self.adaptive is not None:
                    # A shed is, in effect, a forced drop to the terminal
                    # rung for one window: account it there.
                    obs.inc(self._tier_windows[self._terminal_tier])
                    self.adaptive.charge(session, self._terminal_tier,
                                         degraded=True)
                label = session.fallback_label
                emotion = session.manager.effective_emotion(now)
                root.add_event("admission.shed",
                               {"queue_depth": self.batcher.depth})
                root.set_attr("shed", True)
                root.end()
                return [ServeResult(
                    session_id=session_id, label=label, emotion=emotion,
                    mode=session.manager.decoder_mode(now).value,
                    submitted_at=now, completed_at=now,
                    shed=True, degraded=True,
                    tier=self._terminal_tier, outcome="shed", seq=seq,
                    tag=tag,
                )]

            key = window_hash(signal)
            entry = self.cache.get(key)
            if isinstance(entry, CacheEntry) and entry.label is not None:
                self.completed += 1
                # Cache hits are span *events*, not child spans: they
                # take no measurable time, and the hit path is hot
                # enough that an extra span per window is what pushes
                # tracing overhead past its budget.
                root.add_event("cache.hit", {"key": key[:8]})
                if tier is not None:
                    # Served from cache at the session's current rung:
                    # no model ran, so only the fallback energy is paid.
                    obs.inc(self._tier_windows[tier.name])
                    self.adaptive.charge(session, tier.name, degraded=True)
                emotion = self._deliver(session, entry.label, now,
                                        degraded=False, root=root)
                root.set_attr("cached", True)
                root.end()
                return [ServeResult(
                    session_id=session_id, label=entry.label, emotion=emotion,
                    mode=session.manager.decoder_mode(now).value,
                    submitted_at=now, completed_at=now,
                    cached=True, tier=tier.name if tier else None,
                    outcome="cached", seq=seq, tag=tag,
                )]
            features = None
            if isinstance(entry, CacheEntry) and entry.features is not None:
                features = entry.features  # DSP already paid by a flush
                root.add_event("cache.features_hit", {"key": key[:8]})
            elif not isinstance(entry, CacheEntry):
                # DSP is deferred to the flush, where it runs once,
                # batched, over the unique raw windows; the placeholder
                # entry dedups concurrent submits of the same window.
                self.cache.put(key, CacheEntry())
            request = BatchRequest(
                session_id=session_id, key=key,
                submitted_at=now, seq=seq, session=session, tag=tag,
                features=features,
                signal=None if features is not None else signal,
                tier=tier.name if tier is not None else None,
                root_span=root,
                batch_span=tracer.start_span(
                    "serve.batch", workload_time=now, parent=root,
                    attrs={"key": key[:8]},
                ),
            )
            return self._finish(self.batcher.submit(request, now))

    # -- pumping -----------------------------------------------------------

    def poll(self, now: float) -> list[ServeResult]:
        """Advance workload time: deadline flushes + idle-session eviction."""
        with self._lock:
            if self.adaptive is not None:
                self.adaptive.observe(get_registry(), now)
            self.sessions.evict_idle(now)
            return self._finish(self.batcher.poll(now))

    def drain(self, now: float) -> list[ServeResult]:
        """Force-flush everything pending (shutdown / end of workload)."""
        with self._lock:
            return self._finish(self.batcher.flush(now))

    # -- internals ---------------------------------------------------------

    def _deliver(self, session, label: str, now: float, degraded: bool,
                 root) -> str | None:
        """Push one label into the session under a controller stage span."""
        tracer = get_tracer()
        start = time.perf_counter()
        parent = root if root is not None else NOOP_SPAN
        with tracer.span("serve.controller", workload_time=now, parent=parent,
                         attrs={"label": label, "degraded": degraded}):
            emotion = session.deliver(label, now, degraded)
        get_registry().observe(_STAGE_CONTROLLER,
                               time.perf_counter() - start)
        return emotion

    def _finish(self, outcomes: list[BatchResult]) -> list[ServeResult]:
        """Fan flush outcomes back out to their sessions.

        Each member window's trace is completed here: the waiting
        ``serve.batch`` span links the shared flush trace and adopts a
        per-window copy of the batched ``serve.predict`` interval, the
        controller delivery runs as a ``serve.controller`` child, and
        the root closes with the final label.
        """
        obs = get_registry()
        tracer = get_tracer()
        results: list[ServeResult] = []
        for outcome in outcomes:
            request = outcome.request
            root = request.root_span
            batch_span = request.batch_span
            session = request.session
            if self.sessions.peek(request.session_id) is not session:
                # The session was evicted or preempted while this window
                # was in flight.  It is still answered for its own
                # session, which is out of the table, so nothing here
                # resurrects it or touches a successor under the same id.
                obs.inc("serve.orphaned_results")
            entry = self.cache.peek(request.key)
            if isinstance(entry, CacheEntry) and entry.features is None:
                # Backfill the flush's DSP output even on degraded
                # flushes, so a retry of the same window skips DSP.
                entry.features = outcome.features
            if outcome.label_index is None:
                label = session.fallback_label
                degraded = True
                obs.inc("serve.degraded")
            else:
                label = self.label_names[outcome.label_index]
                degraded = False
                if isinstance(entry, CacheEntry) and request.tier in (
                    None, self._top_tier
                ):
                    # Only full-quality predictions may backfill the
                    # shared label cache: a degraded tier's answer served
                    # to a later full-tier session would silently poison
                    # its quality.
                    entry.label = label
            if request.tier is not None and self.adaptive is not None:
                obs.inc(self._tier_windows[request.tier])
                self.adaptive.charge(session, request.tier, degraded=degraded)
            if batch_span is not None:
                if outcome.flush_context is not None:
                    batch_span.add_link(outcome.flush_context)
                    batch_span.set_attr("flush_trace",
                                        outcome.flush_context.trace_id)
                if degraded:
                    batch_span.add_event("flush.degraded")
                if outcome.predict_window is not None:
                    # Re-attribute the one shared model call to this
                    # window's own trace so every tree shows its predict
                    # cost (marked shared; the real span lives in the
                    # linked serve.flush trace).
                    shared = tracer.start_span(
                        "serve.predict",
                        workload_time=outcome.flushed_at,
                        parent=batch_span,
                        start_perf_s=outcome.predict_window[0],
                        attrs={"shared": True},
                    )
                    shared.end(end_perf_s=outcome.predict_window[1])
                batch_span.end()
            emotion = self._deliver(session, label, outcome.flushed_at,
                                    degraded, root)
            self.completed += 1
            latency = outcome.flushed_at - request.submitted_at
            obs.observe(
                "serve.latency_s", latency,
                root.trace_id if root is not None and root.sampled
                and root.head_sampled else None,
            )
            if root is not None:
                root.set_attr("label", label)
                root.set_attr("latency_s", latency)
                if degraded:
                    root.set_attr("degraded", True)
                root.end()
            results.append(ServeResult(
                session_id=request.session_id, label=label, emotion=emotion,
                mode=session.manager.decoder_mode(outcome.flushed_at).value,
                submitted_at=request.submitted_at,
                completed_at=outcome.flushed_at,
                degraded=degraded, tier=request.tier, seq=request.seq,
                tag=request.tag,
            ))
        return results

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Windows accepted but not yet flushed."""
        return self.batcher.depth

    @property
    def dropped(self) -> int:
        """Requests neither completed, shed, nor pending — must stay 0."""
        return self.submitted - self.completed - self.shed - self.pending

    def stats(self) -> dict[str, object]:
        """One JSON-able snapshot of the runtime's health."""
        stats: dict[str, object] = {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "absorbed": self.absorbed,
            "pending": self.pending,
            "dropped": self.dropped,
            "sessions_active": len(self.sessions),
            "sessions_created": self.sessions.created,
            "sessions_evicted_idle": self.sessions.evicted_idle,
            "sessions_evicted_lru": self.sessions.evicted_lru,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_entries": len(self.cache),
            "batch_flushes": self.batcher.flushes,
            "degraded_flushes": self.batcher.degraded_flushes,
            "breaker_state": self.breaker.state,
            "healthy": self.breaker.state == CLOSED and self.dropped == 0,
        }
        if self.adaptive is not None:
            stats["adaptive"] = self.adaptive.stats()
        return stats
