"""Per-request distributed-style tracing for the affect-serving chain.

The metrics layer (:mod:`repro.obs.registry`) aggregates; this module
*follows one request*.  A window entering the serve runtime gets a root
span; every stage it crosses (cache, DSP, batched inference, controller)
hangs a child span or an event off it, so tail latency is attributable
to a stage instead of vanishing into a p99.

Design constraints, matching the rest of the repo:

- **zero dependencies** — pure stdlib (``contextvars``, ``threading``);
- **deterministic** — span/trace IDs derive from a seeded counter,
  never from wall clock or ``os.urandom``, so two identical runs emit
  identical traces and tests can assert on IDs;
- **bounded** — finished spans land in a ring (default 4096); a
  long-running server never grows tracing state without bound;
- **cheap when off** — a disabled registry or a head-sampling miss
  yields a shared no-op span; the hot path is one ``ContextVar.get``
  and an attribute check.

Propagation uses :mod:`contextvars`: :meth:`Tracer.span` installs the
new span as the ambient parent for the dynamic extent of the ``with``
block, so deeply nested layers (``dsp.features`` under
``affect.pipeline`` under ``serve``) parent correctly without passing
handles through every signature.  Fan-in stages (micro-batch flushes
serving many sessions) instead carry *links*: the batch span records the
:class:`TraceContext` of every member window it served.

Span timestamps are :func:`time.perf_counter` readings anchored to the
process wall-clock epoch (see :func:`repro.obs.timing.wall_time_of`), so
exports carry absolute times while in-process math keeps monotonic
precision.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any

from repro.obs.registry import MetricsRegistry, get_registry


class TraceContext:
    """Identity of one span: where it lives in which request tree.

    ``trace_id`` names the whole request tree (16 hex bytes), ``span_id``
    this node (8 hex bytes), ``parent_id`` the enclosing span (``None``
    for a root).  ``sampled=False`` marks a tree dropped by head
    sampling — descendants inherit the decision and record nothing.

    A hand-rolled slotted class, not a dataclass: one is built per span
    on the serve hot path, and ``@dataclass(frozen=True)`` costs ~3x as
    much per instantiation.  Treat instances as immutable.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: str | None = None, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id
                and self.sampled == other.sampled)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_id={self.parent_id!r}, "
                f"sampled={self.sampled!r})")


class SpanAnnotation:
    """A point-in-time event inside a span (cache hit, breaker trip...)."""

    __slots__ = ("name", "perf_s", "attrs")

    def __init__(self, name: str, perf_s: float,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.perf_s = perf_s
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (monotonic timestamp; exporters anchor)."""
        out: dict[str, Any] = {"name": self.name, "perf_s": self.perf_s}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Span:
    """One timed node of a request tree.

    Spans are created by a :class:`Tracer` (never directly), mutated
    while open (:meth:`set_attr`, :meth:`add_event`, :meth:`add_link`),
    and become immutable facts in the tracer's ring once :meth:`end`
    runs.  ``start_perf_s``/``end_perf_s`` are perf-counter readings; a
    caller may override both to record a span for an interval it
    measured itself (e.g. re-attributing one shared batched inference to
    each member window).

    Attribute/event/link storage and the :class:`TraceContext` view are
    allocated lazily: most serve-path spans never grow events or links
    and never have their context read, and skipping those allocations is
    what keeps a fully-traced cache hit within the <2% overhead budget.
    A recorded span is always sampled — unsampled trees collapse into
    the shared :data:`NOOP_SPAN` at creation time.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_perf_s",
                 "end_perf_s", "status", "workload_time", "head_sampled",
                 "_attrs", "_events", "_links", "_context", "_tracer")

    #: Class-level so ``parent=`` accepts a Span or a TraceContext alike.
    sampled = True

    def __init__(
        self,
        tracer: Tracer | None,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start_perf_s: float,
        workload_time: float | None = None,
        attrs: dict[str, Any] | None = None,
        head_sampled: bool = True,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_perf_s = start_perf_s
        self.end_perf_s: float | None = None
        self.status = "ok"
        self.workload_time = workload_time
        #: ``False`` marks a *provisional* span: its tree lost the head-
        #: sampling draw and survives only if tail retention keeps it.
        self.head_sampled = head_sampled
        self._attrs = attrs
        self._events: list[SpanAnnotation] | None = None
        self._links: list[TraceContext] | None = None
        self._context: TraceContext | None = None
        self._tracer = tracer

    # -- lazy views ---------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        """This span's identity, materialized on first read."""
        ctx = self._context
        if ctx is None:
            ctx = self._context = TraceContext(
                self.trace_id, self.span_id, self.parent_id, self.sampled
            )
        return ctx

    @property
    def attrs(self) -> dict[str, Any]:
        return self._attrs if self._attrs is not None else {}

    @property
    def events(self) -> list[SpanAnnotation]:
        return self._events if self._events is not None else []

    @property
    def links(self) -> list[TraceContext]:
        return self._links if self._links is not None else []

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        if self.end_perf_s is None:
            return 0.0
        return self.end_perf_s - self.start_perf_s

    # -- mutation while open ----------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one key/value attribute."""
        if self.end_perf_s is None:
            if self._attrs is None:
                self._attrs = {}
            self._attrs[key] = value

    def add_event(self, name: str, attrs: dict[str, Any] | None = None,
                  perf_s: float | None = None) -> None:
        """Record a point-in-time annotation inside this span."""
        if self.end_perf_s is not None:
            return
        if self._events is None:
            self._events = []
        self._events.append(SpanAnnotation(
            name, time.perf_counter() if perf_s is None else perf_s, attrs
        ))

    def add_link(self, context: TraceContext) -> None:
        """Link another trace's span (fan-in: batch → member windows)."""
        if self.end_perf_s is None and context.sampled:
            if self._links is None:
                self._links = []
            self._links.append(context)

    def end(self, error: BaseException | None = None,
            end_perf_s: float | None = None) -> None:
        """Close the span and hand it to the tracer's ring (idempotent)."""
        if self.end_perf_s is not None:
            return
        self.end_perf_s = time.perf_counter() if end_perf_s is None else end_perf_s
        if error is not None:
            self.status = "error"
            if self._attrs is None:
                self._attrs = {}
            self._attrs.setdefault("error", type(error).__name__)
        if self._tracer is not None:
            self._tracer._record(self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (one JSONL line per span)."""
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_perf_s": self.start_perf_s,
            "end_perf_s": self.end_perf_s,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.workload_time is not None:
            out["workload_time"] = self.workload_time
        if self._attrs:
            out["attrs"] = dict(self._attrs)
        if self._events:
            out["events"] = [e.to_dict() for e in self._events]
        if self._links:
            out["links"] = [
                {"trace_id": c.trace_id, "span_id": c.span_id}
                for c in self._links
            ]
        return out


class _NoopSpan(Span):
    """Shared sink for unsampled/disabled traces: every method is a no-op."""

    sampled = False

    def __init__(self) -> None:
        super().__init__(
            tracer=None,
            name="noop",
            trace_id="0" * 32,
            span_id="0" * 16,
            parent_id=None,
            start_perf_s=0.0,
        )

    def set_attr(self, key: str, value: Any) -> None:
        return

    def add_event(self, name: str, attrs: dict[str, Any] | None = None,
                  perf_s: float | None = None) -> None:
        return

    def add_link(self, context: TraceContext) -> None:
        return

    def end(self, error: BaseException | None = None,
            end_perf_s: float | None = None) -> None:
        return


#: The one no-op span every dropped trace shares (no per-call allocation).
NOOP_SPAN = _NoopSpan()

#: Ambient current span for contextvars propagation.
_CURRENT_SPAN: ContextVar[Span | None] = ContextVar("repro_current_span",
                                                    default=None)


# -- per-thread stage attribution (consumed by repro.obs.prof) --------------
#
# The sampling profiler runs on its own daemon thread and cannot read
# another thread's ContextVar, but ``sys._current_frames()`` keys the
# frames it walks by thread id — so while at least one profiler is
# attached, span scopes mirror the ambient span *name* into this table
# keyed by ``threading.get_ident()``.  Maintenance costs two dict/list
# operations per scope boundary and is skipped entirely (one module
# global check) when nothing is attached, which keeps the untraced and
# unprofiled hot paths at their existing cost.
#
# Thread safety: each stack is only ever mutated by its own thread; the
# sampler reads other threads' stacks, which under the GIL sees either
# the pre- or post-mutation list — both are valid attributions.
_STAGE_STACKS: dict[int, list[str]] = {}
_STAGE_TRACKING = False
_STAGE_ATTACHED = 0
_STAGE_LOCK = threading.Lock()

#: Optional allocation hook installed by ``repro.obs.prof.HeapProfiler``:
#: an object with ``stage_bytes() -> int`` and
#: ``record_stage(name, delta_bytes)``.  Tracked scopes read traced
#: bytes at entry and report the net delta to the innermost stage at
#: exit, which is what "per-stage net bytes" means in the heap profile.
_HEAP_HOOK: Any | None = None


def enable_stage_tracking() -> None:
    """Attach one stage-table consumer (refcounted; profiler start)."""
    global _STAGE_TRACKING, _STAGE_ATTACHED
    with _STAGE_LOCK:
        _STAGE_ATTACHED += 1
        _STAGE_TRACKING = True


def disable_stage_tracking() -> None:
    """Detach one consumer; the last detach clears the table."""
    global _STAGE_TRACKING, _STAGE_ATTACHED
    with _STAGE_LOCK:
        _STAGE_ATTACHED = max(0, _STAGE_ATTACHED - 1)
        if _STAGE_ATTACHED == 0:
            _STAGE_TRACKING = False
            _STAGE_STACKS.clear()


def push_thread_stage(name: str) -> None:
    """Mark the calling thread as inside ``name`` for the profiler.

    Span scopes call this automatically; workload drivers without a
    span of their own (the daemon poll loop, a bench schedule loop) use
    it directly so their samples land under a named stage too.
    """
    ident = threading.get_ident()
    stack = _STAGE_STACKS.get(ident)
    if stack is None:
        stack = _STAGE_STACKS[ident] = []
    stack.append(name)


def pop_thread_stage() -> None:
    """Undo the matching :func:`push_thread_stage` (LIFO per thread)."""
    stack = _STAGE_STACKS.get(threading.get_ident())
    if stack:
        stack.pop()


def current_stage_of(ident: int) -> str | None:
    """Innermost active stage of thread ``ident``, or ``None``."""
    stack = _STAGE_STACKS.get(ident)
    if stack:
        return stack[-1]
    return None


class _SpanScope:
    """``with``-body for one open span: install as ambient, end on exit.

    Hand-rolled instead of ``@contextlib.contextmanager`` — the generator
    protocol costs ~1µs per entry, which dominates a cache-hit window's
    tracing budget when three scopes open per request.
    """

    __slots__ = ("span", "_token", "_tracked", "_heap0")

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self.span)
        # The tracked flag is per-scope so a profiler attaching or
        # detaching mid-scope never unbalances the stage stack: each
        # scope pops exactly what it pushed.
        if _STAGE_TRACKING:
            self._tracked = True
            push_thread_stage(self.span.name)
            hook = _HEAP_HOOK
            self._heap0 = None if hook is None else hook.stage_bytes()
        else:
            self._tracked = False
        return self.span

    def __exit__(self, exc_type: object, exc: BaseException | None,
                 tb: object) -> bool:
        _CURRENT_SPAN.reset(self._token)
        if self._tracked:
            hook = _HEAP_HOOK
            if hook is not None and self._heap0 is not None:
                hook.record_stage(self.span.name,
                                  hook.stage_bytes() - self._heap0)
            pop_thread_stage()
        self.span.end(error=exc)
        return False


class _ActivateScope:
    """Install an already-open span as ambient; never ends it."""

    __slots__ = ("span", "_token", "_tracked")

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self.span)
        if _STAGE_TRACKING:
            self._tracked = True
            push_thread_stage(self.span.name)
        else:
            self._tracked = False
        return self.span

    def __exit__(self, exc_type: object, exc: BaseException | None,
                 tb: object) -> bool:
        _CURRENT_SPAN.reset(self._token)
        if self._tracked:
            pop_thread_stage()
        return False


class _NoopScope:
    """Shared scope for dropped spans: touches nothing, yields the noop."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NOOP_SPAN

    def __exit__(self, exc_type: object, exc: BaseException | None,
                 tb: object) -> bool:
        return False


#: The one scope every dropped span shares (no allocation, no contextvar
#: churn — safe because the noop never needs to shadow a live ambient
#: parent: a child opened under it would be unsampled anyway).
_NOOP_SCOPE = _NoopScope()


class RetentionPolicy:
    """Record-time tail-retention filter: which finished roots to keep.

    Head sampling decides *before* a request runs and so must keep
    almost nothing to stay cheap; the interesting traces — errors, shed
    or degraded requests, SLO-violating latencies — are precisely the
    rare ones it throws away.  Tail retention decides *after* the root
    span ends, when the outcome is known, and always keeps the trace
    regardless of the head-sampling draw.

    Retention is **root-only**: a head-sampled-out trace exists as a
    single provisional root span whose children stay no-ops.  The root
    carries the evidence the verdict needs (status, ``shed``,
    ``degraded``, ``latency_s``) and is what the retained ring keeps;
    full stage-by-stage trees come from the head-sampled fraction.
    Buffering whole provisional trees would make every window pay the
    full-tracing span cost just in case — on the serve hot path that is
    the difference between tail retention costing <1% and ~5%.

    ``reason(root)`` returns the retention reason (stamped on the root
    as the ``retention_reason`` attribute) or ``None`` to drop.  The
    checks read the root's status and the attributes the serve runtime
    already sets (``shed``, ``degraded``, ``latency_s``):

    - ``"error"`` — the root ended with ``status == "error"``;
    - ``"shed"`` — admission control shed the request;
    - ``"degraded"`` — the ladder answered degraded (breaker open,
      terminal-tier absorption, DSP failure);
    - ``"slo-latency"`` — workload-time latency exceeded
      ``slow_latency_s`` (default 0.5 s, the serve p95 SLO threshold).
    """

    __slots__ = ("slow_latency_s",)

    def __init__(self, slow_latency_s: float = 0.5) -> None:
        self.slow_latency_s = slow_latency_s

    def reason(self, root: Span) -> str | None:
        if root.status == "error":
            return "error"
        attrs = root._attrs
        if attrs:
            if attrs.get("shed"):
                return "shed"
            if attrs.get("degraded"):
                return "degraded"
            latency = attrs.get("latency_s")
            if (isinstance(latency, (int, float))
                    and latency > self.slow_latency_s):
                return "slo-latency"
        return None


#: Sentinel distinguishing "not passed" from "set to None" in configure.
_UNSET = object()


class Tracer:
    """Creates spans, propagates context, and stores finished trees.

    Parameters
    ----------
    registry:
        The metrics registry whose ``enabled`` flag gates all tracing
        (defaults to the process registry).  Head-sampling drops are
        mirrored into it under ``obs.trace.sampled_out``; kept-span
        counts live on the tracer itself (:attr:`finished_total`) to
        keep the per-span cost down.
    max_spans:
        Ring capacity for finished spans.
    sample_rate:
        Head-sampling probability in ``[0, 1]``; the decision is made
        once per root span, deterministically from the trace ID, and
        inherited by every descendant.
    seed:
        Seeds the ID stream; two tracers with equal seeds fed equal
        workloads emit identical IDs.
    retention:
        Optional :class:`RetentionPolicy` enabling tail-based trace
        retention.  ``None`` (the default) keeps the classic behavior:
        a head-sampling miss returns :data:`NOOP_SPAN` and nothing is
        recorded.  With a policy installed, head-sampled-out roots get
        *provisional* spans (children stay no-ops — retention is
        root-only, see :class:`RetentionPolicy`); when such a root ends
        the policy decides whether it lands in the separate retained
        ring with a ``retention_reason`` attribute or is dropped.
        Head-sampled roots get the same verdict, so the retained ring
        alone holds every kept root regardless of main-ring eviction.
    max_retained:
        Retained-ring capacity (root spans; oldest evicted).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_spans: int = 4096,
        sample_rate: float = 1.0,
        seed: int = 0,
        retention: RetentionPolicy | None = None,
        max_retained: int = 2048,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.registry = registry if registry is not None else get_registry()
        self.sample_rate = sample_rate
        self.seed = seed
        self.retention = retention
        # next() on an itertools.count is atomic in CPython — the hot
        # path takes no lock for span identity.
        self._ticks = itertools.count()
        self._span_prefix = format(seed & 0xFFFFFF, "06x")
        self._trace_prefix = format(seed & 0xFFFFFFFF, "08x")
        # Precomputed pieces of the fused fractional-root fast path in
        # :meth:`start_span`: the seed field already shifted into place
        # and the sampling draw threshold scaled to the top-32-bit
        # integer domain (exact: scaling by 2**32 only shifts the float
        # exponent, so ``top32 >= cutoff`` iff ``draw >= rate``).
        self._seed_bits = (seed & 0xFFFFFFFF) << 32
        self._sample_cutoff = sample_rate * 4294967296.0
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._retained: deque[Span] = deque(maxlen=max_retained)
        #: Spans recorded over the tracer's lifetime (ring may evict).
        self.finished_total = 0
        #: Root traces kept by tail retention over the lifetime.
        self.retained_total = 0
        self._lock = threading.Lock()

    # -- configuration ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Tracing is active iff the backing registry is enabled."""
        return self.registry.enabled and self.sample_rate > 0.0

    def configure(self, sample_rate: float | None = None,
                  seed: int | None = None,
                  retention: RetentionPolicy | None | object = _UNSET,
                  ) -> dict[str, Any]:
        """Re-tune sampling/ID generation/retention (e.g. per run).

        ``retention`` accepts a :class:`RetentionPolicy` to enable tail
        retention or ``None`` to disable it; omit the argument to leave
        the current policy untouched.  Returns the previous values of
        the settings it changed, so ``tracer.configure(**previous)``
        restores them.
        """
        previous: dict[str, Any] = {}
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ValueError("sample_rate must be in [0, 1]")
            previous["sample_rate"] = self.sample_rate
            self.sample_rate = sample_rate
            self._sample_cutoff = sample_rate * 4294967296.0
        if seed is not None:
            previous["seed"] = self.seed
            self.seed = seed
            self._span_prefix = format(seed & 0xFFFFFF, "06x")
            self._trace_prefix = format(seed & 0xFFFFFFFF, "08x")
            self._seed_bits = (seed & 0xFFFFFFFF) << 32
        if retention is not _UNSET:
            previous["retention"] = self.retention
            self.retention = retention  # type: ignore[assignment]
        return previous

    def clear(self) -> None:
        """Drop all finished/retained spans and restart the ID counter."""
        with self._lock:
            self._finished.clear()
            self._retained.clear()
            self.finished_total = 0
            self.retained_total = 0
            self._ticks = itertools.count()

    # -- deterministic identity --------------------------------------------

    def _span_id(self) -> str:
        """One 8-byte span ID: seed prefix + counter (cheap hot path)."""
        return self._span_prefix + format(
            (next(self._ticks) + 1) & 0xFFFFFFFFFF, "010x"
        )

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        workload_time: float = 0.0,
        attrs: dict[str, Any] | None = None,
        parent: TraceContext | Span | None = None,
        root: bool = False,
        start_perf_s: float | None = None,
    ) -> Span:
        """Open one span; the caller must :meth:`Span.end` it.

        ``parent`` overrides the ambient contextvar parent and may be a
        :class:`TraceContext` or an open :class:`Span` (cheaper — no
        context materialization); ``root=True`` forces a fresh trace
        even when an ambient span exists.  The span is *not* installed
        as the ambient current span — use :meth:`span` /
        :meth:`activate` for that.  The span takes ownership of
        ``attrs``; pass a fresh dict.
        """
        if not self.enabled and not (self.retention is not None
                                     and self.registry.enabled):
            return NOOP_SPAN  # disabled registry, or rate 0 w/o retention
        head_sampled = True
        if parent is None and not root:
            parent = _CURRENT_SPAN.get()
        if parent is not None and not root:
            if not parent.sampled:
                return NOOP_SPAN
            # Children of a provisional (head-sampled-out) root stay
            # no-ops: tail retention keeps root evidence only, so every
            # window does not pay the full span-tree cost just in case.
            if not getattr(parent, "head_sampled", True):
                return NOOP_SPAN
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif self.sample_rate >= 1.0:
            # Every trace is kept, so the ID is a cheap seed-prefixed
            # counter — nobody reads its bits.  +1 keeps the very first
            # ID at seed 0 distinct from the all-zero NOOP_SPAN identity.
            trace_id = self._trace_prefix + format(
                (next(self._ticks) + 1) & 0xFFFFFFFFFFFFFFFFFFFFFFFF, "024x"
            )
            parent_id = None
        else:
            # Fractional roots scramble the counter with one 64-bit
            # multiplicative mix (Knuth-style; one C-level int multiply,
            # far cheaper than a cryptographic hash), so the top bits
            # are a uniform sampling draw, compared as an integer, and
            # still reproducible for equal ``(seed, tick)``.  With tail
            # retention on, every serve window mints a root here, so
            # the constant matters.
            tick = next(self._ticks) + 1
            mixed = (((tick ^ (self.seed * 0x9E3779B97F4A7C15))
                      * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF)
            trace_id = format(
                (mixed << 64) | self._seed_bits | (tick & 0xFFFFFFFF),
                "032x",
            )
            if (mixed >> 32) >= self._sample_cutoff:
                self.registry.inc("obs.trace.sampled_out")
                if self.retention is None:
                    return NOOP_SPAN
                # Tail retention wants a verdict at root end, so the
                # trace must exist provisionally even though head
                # sampling dropped it.
                head_sampled = False
            # The trace ID's low 16 hex digits (seed + tick fields) are
            # already unique per counter draw, so the root reuses them
            # as its span ID — no second draw, no second ``format``.
            return Span(
                self,
                name,
                trace_id,
                trace_id[16:],
                None,
                time.perf_counter() if start_perf_s is None else start_perf_s,
                workload_time,
                attrs,
                head_sampled=head_sampled,
            )
        return Span(
            self,
            name,
            trace_id,
            self._span_id(),
            parent_id,
            time.perf_counter() if start_perf_s is None else start_perf_s,
            workload_time,
            attrs,
            head_sampled=head_sampled,
        )

    def span(
        self,
        name: str,
        workload_time: float = 0.0,
        attrs: dict[str, Any] | None = None,
        parent: TraceContext | Span | None = None,
        root: bool = False,
    ) -> _SpanScope | _NoopScope:
        """Open a span, install it as the ambient parent, end on exit.

        Returns a reusable context manager; an exception inside the
        ``with`` block marks the span ``status="error"`` and re-raises.
        """
        opened = self.start_span(name, workload_time=workload_time,
                                 attrs=attrs, parent=parent, root=root)
        if opened is NOOP_SPAN:
            return _NOOP_SCOPE
        return _SpanScope(opened)

    def stage(
        self,
        name: str,
        workload_time: float = 0.0,
        attrs: dict[str, Any] | None = None,
    ) -> _SpanScope | _NoopScope:
        """A child span *only when already inside a trace*, else a no-op.

        Library layers (DSP, model predict) use this so their work nests
        under whatever request is in flight without minting root traces
        for every standalone call — a training loop calling ``predict``
        thousands of times must not flood the span ring.
        """
        ambient = _CURRENT_SPAN.get()
        if ambient is None or not ambient.sampled:
            return _NOOP_SCOPE
        return self.span(name, workload_time=workload_time, attrs=attrs)

    def activate(self, span: Span) -> _ActivateScope:
        """Install an already-open span as the ambient parent (no end)."""
        return _ActivateScope(span)

    def current(self) -> Span | None:
        """The ambient span, or ``None`` outside any ``span``/``activate``."""
        return _CURRENT_SPAN.get()

    def annotate(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        """Add an event to the ambient span, if one is recording.

        Deep layers (circuit breaker, controller) call this without
        holding a span handle; outside any trace it is a no-op.
        """
        span = _CURRENT_SPAN.get()
        if span is not None:
            span.add_event(name, attrs)

    # -- storage ------------------------------------------------------------

    def _record(self, span: Span) -> None:
        # A plain counter under the ring lock, not a registry counter:
        # one registry.inc per finished span is measurable on the serve
        # hot path; ``finished_total`` survives ring eviction.
        #
        # The retention verdict only reads the ended span, so it runs
        # before the lock — a provisional root judged healthy (the
        # overwhelming majority) never takes the lock at all.
        reason = None
        retention = self.retention
        if retention is not None and span.parent_id is None:
            # Root ended: decide now.  The retained ring holds its own
            # reference, so main-ring eviction can never drop a kept
            # root and a dropped provisional root was never stored.
            reason = retention.reason(span)
        if not span.head_sampled and reason is None:
            return
        with self._lock:
            if span.head_sampled:
                self._finished.append(span)
                self.finished_total += 1
            if reason is not None:
                if span._attrs is None:
                    span._attrs = {}
                # Direct write: the span is already ended (set_attr
                # no-ops).
                span._attrs["retention_reason"] = reason
                self._retained.append(span)
                self.retained_total += 1

    @property
    def spans(self) -> list[Span]:
        """Finished spans, oldest first (copied under the lock)."""
        with self._lock:
            return list(self._finished)

    @property
    def retained(self) -> list[Span]:
        """Tail-retained spans, oldest trace first (copied under lock)."""
        with self._lock:
            return list(self._retained)


#: Process-wide tracer mirroring ``get_registry()``.
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by all built-in instrumentation."""
    return _GLOBAL_TRACER
