"""Continuous profiling: stack sampling, allocation tracking, exporters.

Metrics say *how much*, traces say *how long per stage* — this module
says **where the cycles and bytes actually go**, which is the evidence
the paper's resource-management loop (and the ROADMAP's sharding and
hot-path items) need before any partitioning decision.  Everything is
pure stdlib and follows the repo's observability rules: bounded state,
one lock per component, cheap when off, and a hard budget on its own
cost (<2% serve-bench overhead at the default sampling rate, gated in
``BENCH_obs.json``).

Three cooperating pieces:

- :class:`StackSampler` — a daemon thread walks
  ``sys._current_frames()`` every ``interval_s`` (default 10 ms /
  100 Hz, the classic continuous-profiling rate) and aggregates each
  thread's stack into a prefix trie keyed by ``(thread, stack)``.
  Samples are tagged with the innermost active :class:`Tracer` stage
  via the per-thread stage table :mod:`repro.obs.trace` maintains while
  a profiler is attached — the sampler cannot read another thread's
  ``ContextVar``, but ``sys._current_frames()`` keys frames by thread
  id and so does the table.
- :class:`HeapProfiler` — ``tracemalloc``-based allocation accounting:
  top-N allocation sites from snapshot deltas, per-stage net bytes via
  a scope hook, and ``prof.heap.*`` gauges (traced, peak and growth
  rate) that ``/debug/prof/heap`` and ``repro profile`` report.
- Exporters — :meth:`StackSampler.collapsed` emits the collapsed-stack
  format (``frame;frame;frame count`` — flamegraph.pl and speedscope
  open it directly), :func:`profile_counter_events` emits Perfetto
  counter tracks (``ph: "C"``) that merge into the existing
  Chrome-trace export, and :meth:`StackSampler.publish` mirrors totals
  into ``prof.*`` registry metrics (``repro_prof_*`` in the Prometheus
  exposition).

**Sampling bias caveats** (also in DESIGN.md §13): a sampling profiler
sees only what is on-CPU-or-blocked at tick instants — costs shorter
than the interval are statistically, not individually, represented;
C-extension work (numpy kernels) is attributed to the Python frame that
called it; and because the sampler thread must acquire the GIL to run,
samples land at bytecode boundaries, slightly under-representing tight
C loops that release the GIL.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from collections import deque
from typing import Any

from repro.obs import trace as _trace
from repro.obs.alerts import SEVERITY_PAGE, STATE_FIRING
from repro.obs.registry import MetricsRegistry, get_registry, labeled
from repro.obs.timing import wall_time_of
from repro.obs.trace import current_stage_of

#: Default sampling interval: 100 Hz.  At this rate one sampling pass
#: (a dict walk plus a few dozen cached label lookups) costs well under
#: the <2% serve-bench budget; see ``BENCH_obs.json``'s ``profile``
#: section for the measured figure.
DEFAULT_INTERVAL_S = 0.01

#: Stacks deeper than this are truncated at the root end (the leaf-side
#: frames are the interesting ones for attribution).
MAX_DEPTH = 64
#: Sampling passes between two publications of the ``prof.*`` gauges.
PUBLISH_EVERY = 50
#: Wall seconds between two heap samples when a heap profiler rides on
#: the sampler thread (≈4 Hz).
HEAP_PERIOD_S = 0.25
#: Passes (stack sampler) and samples (heap profiler) kept for the
#: Perfetto counter tracks.
SAMPLER_TIMELINE_LEN = 4096
HEAP_TIMELINE_LEN = 2048
#: Allocation sites a heap report lists.
HEAP_TOP_N = 12
#: Profiles one :class:`ProfileRecorder` writes before it stops.
MAX_PROFILES = 4

#: Frame label cache keyed by code object (strong refs — bounded by the
#: program's code, which is what a profiler enumerates anyway).
_LABEL_CACHE: dict[Any, str] = {}


def _frame_label(frame: Any) -> str:
    """``module.qualname`` for one frame, cached per code object."""
    code = frame.f_code
    label = _LABEL_CACHE.get(code)
    if label is None:
        module = frame.f_globals.get("__name__", "?")
        name = getattr(code, "co_qualname", None) or code.co_name
        # ";" is the collapsed-format separator and must never appear
        # inside a frame label.
        label = f"{module}.{name}".replace(";", ",")
        _LABEL_CACHE[code] = label
    return label


class _TrieNode:
    """One prefix-trie node: children by frame label, own sample count."""

    __slots__ = ("children", "self_samples")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.self_samples = 0


class StackSampler:
    """Sampling wall-clock profiler over ``sys._current_frames()``.

    A daemon thread wakes every ``interval_s``, snapshots every *other*
    thread's stack, and inserts it into a prefix trie rooted at
    ``(thread name, stage)``.  Aggregation keeps memory O(distinct
    stacks) regardless of run length, so the sampler can stay attached
    to a daemon for days.

    Start/stop are idempotent and safe to call from any thread;
    :meth:`start` attaches the tracer's per-thread stage table
    (refcounted — multiple samplers compose) and :meth:`stop` detaches
    it, joins the thread, and publishes final ``prof.*`` metrics.
    ``sample_once()`` is public so tests can drive deterministic passes
    without the thread (the calling thread is always excluded from its
    own pass).

    Lock discipline: the sampler's own lock guards the trie and the
    counters; registry writes happen outside any registry read path's
    critical section (the registry lock is only taken for metric
    creation), so a thread snapshotting the registry can never deadlock
    against a sampling pass.

    ``heap``: an optional :class:`HeapProfiler` sampled every
    :data:`HEAP_PERIOD_S` from the sampler thread, so one thread drives
    both profiles.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        registry: MetricsRegistry | None = None,
        heap: "HeapProfiler | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.registry = registry if registry is not None else get_registry()
        self.heap = heap
        self.heap_every = max(1, int(round(HEAP_PERIOD_S / interval_s)))
        self._root = _TrieNode()
        self._lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._thread_names: dict[int, str] = {}
        self._timeline: deque[tuple[float, int, int]] = deque(
            maxlen=SAMPLER_TIMELINE_LEN)
        self._passes = 0
        self.samples_total = 0
        self.attributed_total = 0
        #: Accumulated wall seconds spent inside sampling passes — the
        #: profiler's self-accounted cost (the overhead gate's numerator).
        self.sampling_time_s = 0.0
        self.overruns = 0
        self.stage_samples: dict[str, int] = {}
        self.thread_samples: dict[str, int] = {}
        self.started_perf_s: float | None = None
        self.stopped_perf_s: float | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "StackSampler":
        """Begin sampling (idempotent; returns self for chaining)."""
        with self._state_lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            _trace.enable_stage_tracking()
            self._stop_event.clear()
            self.started_perf_s = time.perf_counter()
            self.stopped_perf_s = None
            self._thread = threading.Thread(
                target=self._run, name="repro-prof-sampler", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop sampling, join the thread, publish totals (idempotent)."""
        with self._state_lock:
            thread = self._thread
            if thread is None:
                return
            self._stop_event.set()
            thread.join(timeout_s)
            self._thread = None
            self.stopped_perf_s = time.perf_counter()
            _trace.disable_stage_tracking()
        self.publish()

    def _run(self) -> None:
        stop_wait = self._stop_event.wait
        interval = self.interval_s
        while not stop_wait(interval):
            self.sample_once()
            self._passes += 1
            if self.heap is not None and self._passes % self.heap_every == 0:
                try:
                    self.heap.sample()
                except Exception:
                    self.registry.inc("prof.heap.sample_errors")
            if self._passes % PUBLISH_EVERY == 0:
                self.publish()

    # -- sampling -----------------------------------------------------------

    def sample_once(self) -> int:
        """One sampling pass; returns the number of stacks recorded.

        Walks a point-in-time copy of every thread's current frame.  A
        target thread dying mid-walk is harmless: the frames dict holds
        strong references, so the ``f_back`` chain stays valid even
        after its thread has exited.
        """
        t0 = time.perf_counter()
        own = threading.get_ident()
        frames = sys._current_frames()
        recorded = 0
        with self._lock:
            for tid, frame in frames.items():
                if tid == own:
                    continue
                stage = current_stage_of(tid)
                labels: list[str] = []
                depth = 0
                f = frame
                while f is not None and depth < MAX_DEPTH:
                    labels.append(_frame_label(f))
                    f = f.f_back
                    depth += 1
                labels.reverse()
                thread_label = self._thread_label(tid)
                node = self._root
                for part in self._path(thread_label, stage, labels):
                    child = node.children.get(part)
                    if child is None:
                        child = node.children[part] = _TrieNode()
                    node = child
                node.self_samples += 1
                self.samples_total += 1
                recorded += 1
                self.thread_samples[thread_label] = (
                    self.thread_samples.get(thread_label, 0) + 1)
                if stage is not None:
                    self.attributed_total += 1
                    self.stage_samples[stage] = (
                        self.stage_samples.get(stage, 0) + 1)
            elapsed = time.perf_counter() - t0
            self.sampling_time_s += elapsed
            if elapsed > self.interval_s:
                self.overruns += 1
            self._timeline.append(
                (t0, self.samples_total, self.attributed_total))
        # frames holds strong frame references; drop them promptly.
        del frames
        return recorded

    @staticmethod
    def _path(thread_label: str, stage: str | None,
              labels: list[str]) -> list[str]:
        """Trie path for one sample: thread, optional stage tag, frames."""
        path = [thread_label]
        if stage is not None:
            path.append(f"stage:{stage}")
        path.extend(labels)
        return path

    def _thread_label(self, ident: int) -> str:
        label = self._thread_names.get(ident)
        if label is None:
            for t in threading.enumerate():
                if t.ident is not None:
                    self._thread_names.setdefault(t.ident, t.name)
            label = self._thread_names.get(ident)
            if label is None:
                label = self._thread_names[ident] = f"thread-{ident}"
        return label

    # -- export -------------------------------------------------------------

    def collapsed(self) -> str:
        """The whole trie in collapsed-stack format, one line per stack.

        ``thread;stage:<name>;frame;...;frame <count>`` — sorted for
        determinism; flamegraph.pl and speedscope both parse it as-is.
        """
        lines: list[str] = []
        with self._lock:
            stack: list[str] = []

            def walk(node: _TrieNode) -> None:
                for part in sorted(node.children):
                    child = node.children[part]
                    stack.append(part)
                    if child.self_samples:
                        lines.append(
                            ";".join(stack) + f" {child.self_samples}")
                    walk(child)
                    stack.pop()

            walk(self._root)
        return "\n".join(lines) + ("\n" if lines else "")

    def self_times(self) -> dict[str, int]:
        """Per-frame *self* sample counts (leaf attribution), descending."""
        totals: dict[str, int] = {}
        with self._lock:

            def walk(node: _TrieNode, label: str | None) -> None:
                if label is not None and node.self_samples:
                    totals[label] = totals.get(label, 0) + node.self_samples
                for part, child in node.children.items():
                    walk(child, part)

            walk(self._root, None)
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def stats(self) -> dict[str, Any]:
        """Counters + attribution summary (JSON-serializable)."""
        with self._lock:
            stage_samples = dict(self.stage_samples)
            thread_samples = dict(self.thread_samples)
            total = self.samples_total
            attributed = self.attributed_total
        end = (self.stopped_perf_s if self.stopped_perf_s is not None
               else time.perf_counter())
        duration = (end - self.started_perf_s
                    if self.started_perf_s is not None else 0.0)
        return {
            "interval_s": self.interval_s,
            "duration_s": duration,
            "samples": total,
            "attributed": attributed,
            "attributed_fraction": (attributed / total) if total else 0.0,
            "sampling_time_s": self.sampling_time_s,
            "overruns": self.overruns,
            "stage_samples": dict(
                sorted(stage_samples.items(), key=lambda kv: -kv[1])),
            "thread_samples": thread_samples,
        }

    def publish(self) -> None:
        """Mirror totals into ``prof.*`` registry metrics.

        Gauges, not counters: a gauge set to the current total is
        idempotent, so periodic publication from the sampler thread and
        a final publish at stop can never double-count.
        """
        with self._lock:
            total = self.samples_total
            attributed = self.attributed_total
            overruns = self.overruns
            stages = list(self.stage_samples.items())
            threads = len(self.thread_samples)
        registry = self.registry
        registry.set_gauge("prof.samples", float(total))
        registry.set_gauge("prof.samples.attributed", float(attributed))
        registry.set_gauge("prof.sampler.overruns", float(overruns))
        registry.set_gauge("prof.threads", float(threads))
        for stage, count in stages:
            registry.set_gauge(labeled("prof.stage_samples", stage=stage),
                               float(count))

    def timeline(self) -> list[tuple[float, int, int]]:
        """``(perf_s, samples_total, attributed_total)`` per pass."""
        with self._lock:
            return list(self._timeline)

    def reset(self) -> None:
        """Drop the trie and every counter (the sampler keeps running)."""
        with self._lock:
            self._root = _TrieNode()
            self._timeline.clear()
            self.samples_total = 0
            self.attributed_total = 0
            self.sampling_time_s = 0.0
            self.overruns = 0
            self.stage_samples.clear()
            self.thread_samples.clear()


class HeapProfiler:
    """Allocation profiling from ``tracemalloc`` snapshot deltas.

    :meth:`start` begins tracing (unless something else already did —
    then it piggybacks and leaves tracing on at :meth:`stop`), installs
    itself as the tracer's heap hook so tracked stage scopes report
    per-stage net allocated bytes, and baselines the traced size.
    :meth:`sample` (driven by a :class:`StackSampler` or called
    directly) updates the ``prof.heap.*`` gauges, among them the growth
    rate ``prof.heap.growth_bytes_per_s``.

    Cost note: ``tracemalloc`` instruments every Python allocation and
    is *much* heavier than stack sampling — it is deliberately **not**
    part of the default (gated) profiler configuration; enable it when
    chasing memory, not always-on.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.running = False
        self._started_tracing = False
        self._previous_hook: Any | None = None
        self._lock = threading.Lock()
        self._timeline: deque[tuple[float, int, float]] = deque(
            maxlen=HEAP_TIMELINE_LEN)
        self._last: tuple[float, int] | None = None
        self.baseline_bytes = 0
        self.growth_bytes_per_s = 0.0
        self.stage_net_bytes: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "HeapProfiler":
        """Begin allocation tracking (idempotent)."""
        with self._lock:
            if self.running:
                return self
            self.running = True
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
            current, _peak = tracemalloc.get_traced_memory()
            self.baseline_bytes = current
            self._last = (time.perf_counter(), current)
            self.growth_bytes_per_s = 0.0
            self._previous_hook = _trace._HEAP_HOOK
            _trace._HEAP_HOOK = self
            _trace.enable_stage_tracking()
        return self

    def stop(self) -> None:
        """Stop tracking; stops ``tracemalloc`` only if we started it."""
        with self._lock:
            if not self.running:
                return
            self.running = False
            if _trace._HEAP_HOOK is self:
                _trace._HEAP_HOOK = self._previous_hook
            self._previous_hook = None
            _trace.disable_stage_tracking()
            if self._started_tracing and tracemalloc.is_tracing():
                tracemalloc.stop()
            self._started_tracing = False

    # -- stage hook (called from span scopes while attached) ----------------

    def stage_bytes(self) -> int:
        """Currently traced bytes (cheap C call; scope-entry reading)."""
        return tracemalloc.get_traced_memory()[0]

    def record_stage(self, name: str, delta_bytes: int) -> None:
        """Accumulate one tracked scope's net allocation under its stage."""
        with self._lock:
            self.stage_net_bytes[name] = (
                self.stage_net_bytes.get(name, 0) + delta_bytes)

    # -- sampling -----------------------------------------------------------

    def sample(self, perf_s: float | None = None) -> dict[str, float]:
        """Refresh the ``prof.heap.*`` gauges from the current traced size."""
        if not tracemalloc.is_tracing():
            return {}
        now = time.perf_counter() if perf_s is None else perf_s
        current, peak = tracemalloc.get_traced_memory()
        with self._lock:
            if self._last is not None:
                last_t, last_bytes = self._last
                dt = now - last_t
                if dt > 0:
                    self.growth_bytes_per_s = (current - last_bytes) / dt
            self._last = (now, current)
            growth = self.growth_bytes_per_s
            self._timeline.append((now, current, growth))
        registry = self.registry
        registry.set_gauge("prof.heap.current_bytes", float(current))
        registry.set_gauge("prof.heap.peak_bytes", float(peak))
        registry.set_gauge("prof.heap.growth_bytes_per_s", growth)
        return {"current_bytes": float(current), "peak_bytes": float(peak),
                "growth_bytes_per_s": growth}

    def top(self, n: int = HEAP_TOP_N) -> list[dict[str, Any]]:
        """Top allocation sites by net size (one ``tracemalloc`` snapshot)."""
        if not tracemalloc.is_tracing():
            return []
        snapshot = tracemalloc.take_snapshot().filter_traces((
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
            tracemalloc.Filter(False, "<unknown>"),
        ))
        stats = snapshot.statistics("lineno")
        out: list[dict[str, Any]] = []
        for stat in stats[:n]:
            frame = stat.traceback[0]
            out.append({
                "site": f"{frame.filename}:{frame.lineno}",
                "size_bytes": int(stat.size),
                "count": int(stat.count),
            })
        return out

    def timeline(self) -> list[tuple[float, int, float]]:
        """``(perf_s, current_bytes, growth_bytes_per_s)`` per sample."""
        with self._lock:
            return list(self._timeline)

    def report(self) -> dict[str, Any]:
        """JSON-serializable heap summary (gauges + stages + top sites)."""
        tracing = tracemalloc.is_tracing()
        current, peak = (tracemalloc.get_traced_memory() if tracing
                         else (0, 0))
        with self._lock:
            stage_net = dict(self.stage_net_bytes)
            growth = self.growth_bytes_per_s
        return {
            "tracing": tracing,
            "current_bytes": int(current),
            "peak_bytes": int(peak),
            "baseline_bytes": int(self.baseline_bytes),
            "net_bytes": int(current - self.baseline_bytes),
            "growth_bytes_per_s": growth,
            "stage_net_bytes": dict(
                sorted(stage_net.items(), key=lambda kv: -abs(kv[1]))),
            "top_sites": self.top(),
        }


class ProfileRecorder:
    """Alert sink: a page firing captures the live profile into the bundle.

    Registered *after* the :class:`~repro.obs.flight.FlightRecorder` on
    the same manager, so by the time this sink sees a page-severity
    ``firing`` event the recorder has already written its bundle — the
    profile artifacts land inside that same directory
    (``profile.collapsed`` + ``profile.json``) and the incident is
    self-contained: metrics ring, retained traces, *and* where the CPU
    and heap were at the moment of the page.  Without a flight recorder
    (or before its first bundle) profiles land under ``profile_dir``.

    Emit is cheap — it serializes the sampler's current aggregate; it
    never blocks to collect a fresh window, because sinks run on the
    serving poll loop.
    """

    def __init__(
        self,
        sampler: StackSampler,
        heap: HeapProfiler | None = None,
        recorder: Any | None = None,
        profile_dir: str = "incidents",
    ) -> None:
        self.sampler = sampler
        self.heap = heap
        self.recorder = recorder
        self.profile_dir = profile_dir
        self.profiles: list[str] = []

    def emit(self, event: Any) -> None:
        if event.state != STATE_FIRING or event.severity != SEVERITY_PAGE:
            return
        if len(self.profiles) >= MAX_PROFILES:
            return
        bundles = getattr(self.recorder, "bundles", None)
        if bundles:
            target = bundles[-1]
        else:
            target = os.path.join(
                self.profile_dir,
                f"profile-{len(self.profiles) + 1:02d}-t{event.at:08.2f}",
            )
        os.makedirs(target, exist_ok=True)
        collapsed_path = os.path.join(target, "profile.collapsed")
        with open(collapsed_path, "w", encoding="utf-8") as fh:
            fh.write(self.sampler.collapsed())
        import json

        payload: dict[str, Any] = {
            "rule": event.rule,
            "at": event.at,
            "profile": self.sampler.stats(),
        }
        if self.heap is not None:
            payload["heap"] = self.heap.report()
        with open(os.path.join(target, "profile.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        self.profiles.append(collapsed_path)


# -- exporters ----------------------------------------------------------------

def profile_counter_events(
    sampler: StackSampler | None = None,
    heap: HeapProfiler | None = None,
) -> list[dict]:
    """Perfetto counter-track events (``ph: "C"``) for the profilers.

    Two tracks: ``prof.samples`` (attributed vs unattributed, stacked)
    and ``prof.heap`` (traced MiB + growth rate).  Pass the result to
    :func:`repro.obs.export.chrome_trace_json` via ``counter_events=``
    so resource tracks render under the span waterfall.
    """
    events: list[dict] = []
    if sampler is not None:
        for perf_s, total, attributed in sampler.timeline():
            events.append({
                "name": "prof.samples",
                "ph": "C",
                "ts": wall_time_of(perf_s) * 1e6,
                "pid": 1,
                "tid": 0,
                "cat": "prof",
                "args": {
                    "attributed": attributed,
                    "unattributed": total - attributed,
                },
            })
    if heap is not None:
        for perf_s, current_bytes, growth in heap.timeline():
            events.append({
                "name": "prof.heap",
                "ph": "C",
                "ts": wall_time_of(perf_s) * 1e6,
                "pid": 1,
                "tid": 0,
                "cat": "prof",
                "args": {
                    "traced_mib": current_bytes / (1024.0 * 1024.0),
                    "growth_mib_per_s": growth / (1024.0 * 1024.0),
                },
            })
    events.sort(key=lambda e: e["ts"])
    return events


def render_flame_summary(
    sampler: StackSampler,
    heap: HeapProfiler | None = None,
    top: int = 12,
    width: int = 36,
) -> str:
    """Terminal flame summary: stages, hottest frames, heap sites."""
    stats = sampler.stats()
    total = stats["samples"]
    lines = [
        "== profile ==",
        (f"samples={total}  interval={stats['interval_s'] * 1e3:g}ms  "
         f"duration={stats['duration_s']:.2f}s  "
         f"attributed={stats['attributed_fraction'] * 100:.1f}%  "
         f"overruns={stats['overruns']}"),
    ]
    if stats["stage_samples"]:
        lines.append("-- by stage --")
        stage_width = max(len(s) for s in stats["stage_samples"])
        for stage, count in stats["stage_samples"].items():
            frac = count / total if total else 0.0
            bar = "#" * max(1, int(round(frac * width)))
            lines.append(
                f"{stage:<{stage_width}}  {frac * 100:5.1f}%  {bar}")
    hottest = list(sampler.self_times().items())[:top]
    if hottest:
        lines.append(f"-- hottest frames (self time, top {top}) --")
        frame_width = max(len(f) for f, _ in hottest)
        for frame, count in hottest:
            frac = count / total if total else 0.0
            lines.append(f"{frame:<{frame_width}}  {frac * 100:5.1f}%")
    if heap is not None:
        report = heap.report()
        lines.append("-- heap --")
        lines.append(
            f"current={report['current_bytes'] / 1e6:.1f}MB  "
            f"peak={report['peak_bytes'] / 1e6:.1f}MB  "
            f"net={report['net_bytes'] / 1e6:+.1f}MB  "
            f"growth={report['growth_bytes_per_s'] / 1e6:+.2f}MB/s")
        for stage, net in list(report["stage_net_bytes"].items())[:top]:
            lines.append(f"stage {stage:<24} net {net / 1e6:+9.2f}MB")
        for site in report["top_sites"][:top]:
            lines.append(
                f"{site['size_bytes'] / 1e6:8.2f}MB  x{site['count']:<7} "
                f"{site['site']}")
    return "\n".join(lines)


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Parse collapsed-stack text back into ``{stack tuple: count}``.

    The inverse of :meth:`StackSampler.collapsed`; tests and the CI
    smoke job use it to prove the artifact round-trips.
    """
    out: dict[tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            raise ValueError(f"malformed collapsed line: {line!r}")
        out[tuple(stack.split(";"))] = (
            out.get(tuple(stack.split(";")), 0) + int(count))
    return out
