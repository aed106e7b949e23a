"""What the benchmark reports: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names; ``run.py``
refuses to run when the two disagree.  ``TARGETS`` names, for each layer,
the end-to-end metrics and workloads a change to that layer should move,
so a change can state beforehand which number should change where.  (The
contract of ``BENCHMARK.json`` admits no such key, so it lives here.)
"""

from __future__ import annotations

from common import quantile

WORKLOADS = {
    "serve-replay": (
        "in-process AffectServer, 64 sessions, closed loop over a 24-utterance "
        "pool: ~99.9% cache hits, so the per-window hit path (hash, LRU, "
        "sessions, controller, obs) does the work"),
    "wire-saturate": (
        "daemon --batch 16, 2 connections x 8 unique windows outstanding: "
        "every flush full, so protocol decode, the executor hop and batched "
        "DSP do the work"),
    "wire-paced": (
        "default daemon, 2 connections x 12.5 unique windows/s open loop: "
        "latency set by the batch deadline and poll loop, CPU by background "
        "threads"),
}

#: name -> (unit, better, bound)
END_TO_END = {
    "windows_per_s": ("1/s", "higher", 0.25),
    "cpu_ms_per_window": ("ms", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

_SR, _WS, _WP = "serve-replay", "wire-saturate", "wire-paced"

#: Per layer, the end-to-end metrics on the workloads that a change to
#: the layer should move (``failed_frac`` is printed with every run).
TARGETS = {
    "protocol": [("windows_per_s", _WS), ("cpu_ms_per_window", _WS)],
    "daemon": [("windows_per_s", _WS), ("latency_p95_ms", _WS),
               ("latency_p95_ms", _WP), ("cpu_ms_per_window", _WP)],
    "runtime": [("windows_per_s", _SR), ("failed_frac", "every workload")],
    "cache": [("windows_per_s", _SR)],
    "batcher": [("latency_p50_ms", _WP), ("latency_p95_ms", _WP),
                ("windows_per_s", _WS)],
    "dsp": [("windows_per_s", _WS), ("cpu_ms_per_window", _WS),
            ("cpu_ms_per_window", _WP)],
    # About 1% of wire-saturate's wall time: no workload here can show a
    # gain in the model alone, but a claim may not hide in it either.
    "nn": [("cpu_ms_per_window", _WS)],
    "sessions": [("windows_per_s", _SR)],
    "obs": [("windows_per_s", _SR), ("cpu_ms_per_window", _WP)],
    "threads": [("cpu_ms_per_window", _WP), ("cpu_ms_per_window", _WS)],
    # Not a layer of the program: guards the validity of wire-paced latency.
    "loadgen": [("latency_p50_ms", _WP), ("latency_p95_ms", _WP)],
}

#: name -> (unit, better); the layer is the part before the first dot.
PER_LAYER = {
    "protocol.decode_ms_per_window": ("ms", "lower"),
    "protocol.encode_ms_per_window": ("ms", "lower"),
    "protocol.bytes_per_window": ("bytes", "lower"),
    "daemon.hop_ms_p50": ("ms", "lower"),
    "daemon.hop_ms_p95": ("ms", "lower"),
    "daemon.hops_per_window": ("count", "lower"),
    "daemon.poll_ms_per_s": ("ms/s", "lower"),
    "daemon.shed": ("count", "lower"),
    "runtime.submit_self_ms_per_window": ("ms", "lower"),
    "runtime.completed": ("count", "higher"),
    "runtime.cached": ("count", "higher"),
    "runtime.shed": ("count", "lower"),
    "runtime.degraded": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.hash_us_per_window": ("us", "lower"),
    "cache.evictions": ("count", "lower"),
    "batcher.flushes_full": ("count", "higher"),
    "batcher.flushes_deadline": ("count", "lower"),
    "batcher.rows_per_flush": ("count", "higher"),
    "batcher.flush_self_ms_per_window": ("ms", "lower"),
    "batcher.wait_ms_p50": ("ms", "lower"),
    "batcher.wait_ms_p95": ("ms", "lower"),
    "dsp.ms_per_window": ("ms", "lower"),
    "dsp.rows_per_call": ("count", "higher"),
    "nn.ms_per_window": ("ms", "lower"),
    "sessions.deliver_us_per_window": ("us", "lower"),
    "sessions.active": ("count", "higher"),
    "obs.spans_per_window": ("count", "lower"),
    "obs.sampler_ms_per_s": ("ms/s", "lower"),
    "threads.loop_cpu_ms_per_window": ("ms", "lower"),
    "threads.worker_cpu_ms_per_window": ("ms", "lower"),
    "threads.native_cpu_ms_per_window": ("ms", "lower"),
    "threads.other_cpu_ms_per_window": ("ms", "lower"),
    "loadgen.late_ms_p95": ("ms", "lower"),
}
for _name, (_unit, _better, _bound) in END_TO_END.items():
    # Traced minus untraced value of each end-to-end metric.
    PER_LAYER[f"trace_overhead.{_name}"] = (_unit, _better)


def per_layer(agg: dict, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``agg`` is :func:`tracing.analyse` over the measured interval;
    ``facts`` holds what the benchmark read outside the spans: windows
    answered in the interval, per-thread CPU seconds by class, counts
    read from the program, the generator's lateness.
    """
    totals = agg["totals"]
    windows = max(totals["runtime.submit"]["count"], 1)
    answered = max(facts["answered"], 1)
    flushes = totals["batcher.flush"]
    dsp = totals["dsp.prepare_waveforms"]
    lookups = totals["cache.get"]
    outcomes = agg["outcomes"]
    worker_calls = sum(totals[name]["count"] for name in
                       ("runtime.submit", "runtime.poll", "runtime.drain"))
    wire = len(agg["hop_ms"]) > 0

    def total_ms(*names: str) -> float:
        return sum(totals[n]["total_ms"] for n in names)

    def per_window(*names: str, scale: float = 1.0) -> float:
        return total_ms(*names) * scale / windows

    # The poll loop's own cost: its worker hop and monitor hooks, without
    # the deadline flushes it triggers (those are batcher and DSP work).
    poll_ms = (total_ms("runtime.poll", "obs.alerts_observe",
                        "obs.flight_record") - agg["flush_ms"]["deadline"])
    threads = facts["thread_cpu_s"]
    return {
        "protocol.decode_ms_per_window": per_window(
            "protocol.feed", "protocol.parse_window"),
        "protocol.encode_ms_per_window": per_window(
            "protocol.result_frame", "protocol.encode_frame"),
        "protocol.bytes_per_window": (
            totals["protocol.feed"]["size"]
            + totals["protocol.encode_frame"]["size"]) / windows,
        "daemon.hop_ms_p50": quantile(agg["hop_ms"], 0.5),
        "daemon.hop_ms_p95": quantile(agg["hop_ms"], 0.95),
        "daemon.hops_per_window": worker_calls / windows if wire else 0.0,
        "daemon.poll_ms_per_s": poll_ms / agg["seconds"] if wire else 0.0,
        "daemon.shed": facts["daemon_shed"],
        "runtime.submit_self_ms_per_window": (
            totals["runtime.submit"]["total_ms"] - agg["flush_ms"]["full"])
        / windows,
        "runtime.completed": outcomes["completed"],
        "runtime.cached": outcomes["cached"],
        "runtime.shed": outcomes["shed"],
        "runtime.degraded": outcomes["degraded"],
        "cache.hit_ratio": lookups["size"] / max(lookups["count"], 1),
        "cache.hash_us_per_window": per_window("cache.window_hash",
                                               scale=1e3),
        "cache.evictions": facts["evictions"],
        "batcher.flushes_full": agg["flushes"]["full"],
        "batcher.flushes_deadline": agg["flushes"]["deadline"],
        "batcher.rows_per_flush": flushes["size"] / max(flushes["count"], 1),
        "batcher.flush_self_ms_per_window": flushes["self_ms"] / windows,
        "batcher.wait_ms_p50": quantile(agg["wait_ms"], 0.5),
        "batcher.wait_ms_p95": quantile(agg["wait_ms"], 0.95),
        "dsp.ms_per_window": dsp["total_ms"] / windows,
        "dsp.rows_per_call": dsp["size"] / max(dsp["count"], 1),
        "nn.ms_per_window": per_window("nn.predict_batch"),
        "sessions.deliver_us_per_window": per_window("sessions.deliver",
                                                     scale=1e3),
        "sessions.active": facts["sessions_active"],
        "obs.spans_per_window": facts["spans_per_window"],
        "obs.sampler_ms_per_s": facts["sampler_ms_per_s"],
        "threads.loop_cpu_ms_per_window": threads["loop"] * 1e3 / answered,
        "threads.worker_cpu_ms_per_window": threads["worker"] * 1e3 / answered,
        "threads.native_cpu_ms_per_window": threads["native"] * 1e3 / answered,
        "threads.other_cpu_ms_per_window": threads["other"] * 1e3 / answered,
        "loadgen.late_ms_p95": facts["late_ms_p95"],
    }


def classify_threads(per_thread: dict, names: dict[str, str],
                     loop_tid: int) -> dict[str, float]:
    """CPU seconds by thread class.

    ``loop`` is the process's main thread (the daemon's event loop, or
    the closed-loop caller in serve-replay), ``worker`` the serving
    executor's threads, ``native`` threads Python did not start (the
    BLAS pool), ``other`` every other Python thread (the profiler's
    sampler, asyncio's resolver pool).
    """
    classes = {"loop": 0.0, "worker": 0.0, "native": 0.0, "other": 0.0}
    for tid, seconds in per_thread.items():
        tid = int(tid)
        name = names.get(str(tid))
        if tid == loop_tid:
            kind = "loop"
        elif name is None:
            kind = "native"
        elif name.startswith("repro-serve"):
            kind = "worker"
        else:
            kind = "other"
        classes[kind] += seconds
    return classes

