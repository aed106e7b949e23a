"""Latency timing: context manager and decorator feeding histograms."""

from __future__ import annotations

import functools
import time
from typing import Callable

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import _CURRENT_SPAN

#: Process epoch: one (wall clock, perf counter) pair captured at import.
#: Anchoring every monotonic reading to this single pair turns
#: perf-counter timestamps into absolute wall-clock times without losing
#: monotonic precision — required by the Perfetto/Chrome-trace exporters
#: and by anyone correlating spans across processes.
_EPOCH_WALL_S = time.time()
_EPOCH_PERF_S = time.perf_counter()


def process_epoch() -> tuple[float, float]:
    """The ``(time.time(), time.perf_counter())`` pair captured at import."""
    return _EPOCH_WALL_S, _EPOCH_PERF_S


def wall_time_of(perf_s: float) -> float:
    """Convert a :func:`time.perf_counter` reading to Unix wall time."""
    return _EPOCH_WALL_S + (perf_s - _EPOCH_PERF_S)


class Timer:
    """Context manager feeding a latency histogram (seconds).

    >>> with Timer("dsp.features.mfcc_s"):
    ...     do_work()

    When the registry is disabled the context manager does nothing at
    all.  Inside a live trace the sample carries the trace id as its
    exemplar; a stage that should appear *in* the trace opens its own
    :meth:`repro.obs.trace.Tracer.stage` over the same interval.
    """

    __slots__ = ("name", "registry", "elapsed_s", "_start")

    def __init__(self, name: str,
                 registry: MetricsRegistry | None = None) -> None:
        self.name = name
        self.registry = registry if registry is not None else get_registry()
        self.elapsed_s: float | None = None
        self._start = 0.0

    def __enter__(self) -> Timer:
        if self.registry.enabled:
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.registry.enabled:
            return
        self.elapsed_s = time.perf_counter() - self._start
        # Inside a live trace, tag the sample with its trace id so the
        # Prometheus exposition can emit an exemplar linking the slow
        # tail of this histogram to a retained trace.  One ContextVar
        # read; outside any trace it stays None.
        ambient = _CURRENT_SPAN.get()
        trace_id = (ambient.trace_id
                    if ambient is not None and ambient.sampled
                    and ambient.head_sampled else None)
        self.registry.observe(self.name, self.elapsed_s, trace_id)


def timed(name: str, registry: MetricsRegistry | None = None) -> Callable:
    """Decorator recording each call's latency into histogram ``name``.

    >>> @timed("affect.pipeline.train_s")
    ... def train(...): ...
    """

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with Timer(name, registry=registry):
                return func(*args, **kwargs)

        return wrapper

    return decorate
