"""The traced run: timing wrappers around each layer's public entry points.

:func:`install` replaces the public functions the serving stack calls
(protocol decode/encode, the runtime, cache, batcher, DSP, model,
sessions and controller, the daemon's monitor hooks) with wrappers that
record one span per call: name, start, end, parent span, window id,
thread and a per-call size (rows, bytes, hits).  Spans go into a flat
``array('q')`` in memory and are written out once, when the process
ends; :func:`analyse` turns them into the per-layer metrics and
:func:`write_chrome_trace` into a trace Perfetto opens.

The wrappers live in the benchmark, not in the program, and nothing
here uses ``repro.obs``: the untraced runs execute the program's code
unchanged, and the difference between the two runs is the tracing
overhead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: A span record is ``(id, name index, start_ns, end_ns, parent id,
#: window id, thread id, size)``; id 0 means no parent or no window.
_OUTCOMES = ("completed", "cached", "shed", "absorbed")


class SpanLog:
    """In-memory spans plus the per-window samples the wrappers take."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        #: ``(end_ns, outcome index, degraded)`` per served result.
        self.results = array("q")
        #: ``(submit_start_ns, hop_ns)``: frame parsed -> submit entered.
        self.hops = array("q")
        #: ``(flush_start_ns, wait_ns)``: batcher submit -> flush start.
        self.waits = array("q")
        self.threads: list[threading.Thread] = []
        self._ids = itertools.count(1)
        self._window_ids = itertools.count(1)
        self._local = threading.local()
        self._parsed_at: dict[int, tuple[int, int]] = {}
        self._enqueued: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, start_ns)`` may return a window id to run the call
        under; ``after(args, result, start_ns, end_ns)`` may return the
        span's size field.
        """
        original = getattr(owner, attr)
        code = len(self.names)
        self.names.append(name)
        ids = self._ids
        local = self._local
        spans = self.spans
        clock = time.perf_counter_ns
        native_id = threading.get_native_id

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.window = 0
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            outer = local.window
            stack.append(span_id)
            start = clock()
            if before is not None:
                window = before(args, start)
                if window:
                    local.window = window
            window = local.window
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.window = outer
            size = after(args, result, start, end) if after is not None else 0
            spans.extend((span_id, code, start, end, parent, window,
                          native_id(), size or 0))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    # -- hooks -------------------------------------------------------------

    def _parse_begin(self, args, start):
        self._local.parsing = window = next(self._window_ids)
        return window

    def _parsed(self, args, result, start, end):
        self._parsed_at[id(result[1])] = (self._local.parsing, end)
        return 0

    def _submit_window(self, args, start):
        parsed = self._parsed_at.pop(id(args[2]), None)
        if parsed is None:
            return next(self._window_ids)  # in-process caller: no hop
        window, parsed_at = parsed
        self.hops.extend((start, start - parsed_at))
        return window

    def _served(self, args, results, start, end):
        for result in results:
            self.results.extend((end, _OUTCOMES.index(result.outcome),
                                 int(result.degraded)))
        return len(results)

    def _enqueue(self, args, start):
        self._enqueued[id(args[1])] = start
        return 0

    def _flushed(self, args, results, start, end):
        for result in results:
            queued = self._enqueued.pop(id(result.request), None)
            if queued is not None:
                self.waits.extend((start, start - queued))
        return len(results)

    # -- output ------------------------------------------------------------

    def thread_names(self) -> dict[int, str]:
        names = {t.native_id: t.name for t in self.threads
                 if t.native_id is not None}
        main = threading.main_thread()
        names[main.native_id] = "MainThread"
        return names

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans (``.npz``) and ``extra`` facts (``.json``)."""
        np.savez(
            path.with_suffix(".npz"),
            spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 8),
            results=np.frombuffer(self.results, dtype=np.int64).reshape(-1, 3),
            hops=np.frombuffer(self.hops, dtype=np.int64).reshape(-1, 2),
            waits=np.frombuffer(self.waits, dtype=np.int64).reshape(-1, 2),
        )
        meta = dict(extra, names=self.names,
                    threads={str(k): v for k, v in self.thread_names().items()})
        path.with_suffix(".json").write_text(json.dumps(meta))


def install() -> SpanLog:
    """Wrap every layer's public entry points; call before building servers."""
    from repro.affect.pipeline import AffectClassifierPipeline
    from repro.core.controller import AffectDrivenSystemManager
    from repro.daemon import protocol
    from repro.nn.quantization import QuantizedModel
    from repro.obs.alerts import AlertManager
    from repro.obs.flight import FlightRecorder
    from repro.serve import cache, runtime
    from repro.serve.batcher import MicroBatcher
    from repro.serve.sessions import Session, SessionManager

    log = SpanLog()
    wrap = log.wrap

    def size_of(index):
        return lambda args, result, start, end: len(args[index])

    wrap(protocol.FrameDecoder, "feed", "protocol.feed", after=size_of(1))
    wrap(protocol, "parse_window", "protocol.parse_window",
         before=log._parse_begin, after=log._parsed)
    wrap(protocol, "result_frame", "protocol.result_frame")
    wrap(protocol, "encode_frame", "protocol.encode_frame",
         after=lambda args, result, start, end: len(result))
    wrap(runtime.AffectServer, "submit", "runtime.submit",
         before=log._submit_window, after=log._served)
    wrap(runtime.AffectServer, "poll", "runtime.poll", after=log._served)
    wrap(runtime.AffectServer, "drain", "runtime.drain", after=log._served)
    # The runtime calls window_hash through its own module namespace.
    wrap(runtime, "window_hash", "cache.window_hash")
    wrap(cache.LRUCache, "get", "cache.get",
         after=lambda args, result, start, end: int(result is not None))
    wrap(cache.LRUCache, "put", "cache.put")
    wrap(MicroBatcher, "submit", "batcher.submit", before=log._enqueue)
    wrap(MicroBatcher, "poll", "batcher.poll")
    wrap(MicroBatcher, "flush", "batcher.flush", after=log._flushed)
    wrap(AffectClassifierPipeline, "prepare_waveforms", "dsp.prepare_waveforms",
         after=size_of(1))
    wrap(QuantizedModel, "predict_batch", "nn.predict_batch", after=size_of(1))
    wrap(SessionManager, "get_or_create", "sessions.get_or_create")
    wrap(Session, "deliver", "sessions.deliver")
    wrap(AffectDrivenSystemManager, "observe", "controller.observe")
    wrap(AlertManager, "observe", "obs.alerts_observe")
    wrap(FlightRecorder, "record", "obs.flight_record")

    thread_start = threading.Thread.start

    def start(thread, *args, **kwargs):
        log.threads.append(thread)
        return thread_start(thread, *args, **kwargs)

    threading.Thread.start = start
    return log


# -- analysis (in the benchmark process, after the traced process ended) ----

def load(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path.with_suffix(".npz")) as data:
        arrays = {key: data[key] for key in data.files}
    return arrays, json.loads(path.with_suffix(".json").read_text())


def analyse(arrays: dict[str, np.ndarray], names: list[str],
            t0_ns: int, t1_ns: int) -> dict[str, object]:
    """Per-span-name totals over the spans that start in ``[t0, t1)``.

    A span's self time is its duration minus the durations of its
    direct child spans.  Flushes are classed by their caller: inside
    ``batcher.submit`` a flush is full, inside ``batcher.poll`` it met
    its deadline, inside ``runtime.drain`` it was forced.
    """
    spans = arrays["spans"]
    ids, code = spans[:, 0], spans[:, 1]
    dur = spans[:, 3] - spans[:, 2]
    parent = spans[:, 4]
    order = np.argsort(ids)
    has_parent = parent > 0
    parent_pos = np.full(len(spans), -1)
    parent_pos[has_parent] = order[np.searchsorted(ids[order],
                                                   parent[has_parent])]
    child = np.bincount(parent_pos[has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    own = dur - child
    inside = (spans[:, 2] >= t0_ns) & (spans[:, 2] < t1_ns)
    totals: dict[str, dict[str, float]] = {}
    for index, name in enumerate(names):
        mask = inside & (code == index)
        totals[name] = {
            "count": int(mask.sum()),
            "total_ms": float(dur[mask].sum()) / 1e6,
            "self_ms": float(own[mask].sum()) / 1e6,
            "size": int(spans[mask, 7].sum()),
        }
    flush = inside & (code == names.index("batcher.flush"))
    caller = np.where(parent_pos >= 0, code[np.maximum(parent_pos, 0)], -1)
    kinds = {
        kind: int((flush & (caller == names.index(via))).sum())
        for kind, via in (("full", "batcher.submit"),
                          ("deadline", "batcher.poll"),
                          ("drain", "runtime.drain"))
    }
    flush_ms = {
        kind: float(dur[flush & (caller == names.index(via))].sum()) / 1e6
        for kind, via in (("full", "batcher.submit"),
                          ("deadline", "batcher.poll"))
    }

    def window_samples(key: str) -> np.ndarray:
        rows = arrays[key]
        keep = (rows[:, 0] >= t0_ns) & (rows[:, 0] < t1_ns)
        return rows[keep, 1] / 1e6

    results = arrays["results"]
    served = results[(results[:, 0] >= t0_ns) & (results[:, 0] < t1_ns)]
    return {
        "totals": totals,
        "flushes": kinds,
        "flush_ms": flush_ms,
        "hop_ms": window_samples("hops"),
        "wait_ms": window_samples("waits"),
        "outcomes": {
            "completed": int((served[:, 1] == 0).sum()),
            "cached": int((served[:, 1] == 1).sum()),
            "shed": int((served[:, 1] == 2).sum()),
            "absorbed": int((served[:, 1] == 3).sum()),
            "degraded": int(served[:, 2].sum()),
        },
        "seconds": (t1_ns - t0_ns) / 1e9,
    }


def write_chrome_trace(arrays: dict[str, np.ndarray], meta: dict,
                       t0_ns: int, t1_ns: int, path: Path,
                       cap: int = 200_000) -> tuple[int, int]:
    """Spans of the measured interval as Chrome-trace JSON (Perfetto).

    Writes at most ``cap`` spans, the earliest first; returns
    ``(written, total)``.
    """
    spans = arrays["spans"]
    inside = spans[(spans[:, 2] >= t0_ns) & (spans[:, 2] < t1_ns)]
    inside = inside[np.argsort(inside[:, 2], kind="stable")]
    names = meta["names"]
    pid = int(meta.get("pid", 1))
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": int(tid),
         "args": {"name": name}}
        for tid, name in meta["threads"].items()
    ]
    for span_id, code, start, end, parent, window, tid, size in inside[:cap]:
        name = names[code]
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (int(start) - t0_ns) / 1e3, "dur": (int(end) - int(start)) / 1e3,
            "pid": pid, "tid": int(tid),
            "args": {"id": int(span_id), "parent": int(parent),
                     "window": int(window), "n": int(size)},
        })
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return min(cap, len(inside)), len(inside)
