"""serve-replay system under test: an in-process ``AffectServer`` in a closed loop.

Run by ``run.py`` in a fresh process::

    python3 perfbench/replay.py INPUTS.npz SECONDS OUT_PREFIX [--trace]

The process trains the program's classifier, builds an ``AffectServer``
with the default ``ServeConfig``, answers one warm-up window and prints
``READY`` (the end of set-up).  The workload follows at once: 64
sessions on the workload clock, each sending one window per 0.5 s,
drawn from the 24-utterance pool in ``INPUTS.npz``; each submit goes as
soon as the previous call returned.  After a 0.5 s warm-up the loop is
measured for ``SECONDS``: wall time, process CPU time, and the latency
of each window from its submit to the end of the call that answered it
(written to ``OUT_PREFIX.latency.npy``).  The summary is printed as one
``RESULT <json>`` line.  With ``--trace`` the layer wrappers of
``tracing.py`` are installed first and the spans written to
``OUT_PREFIX.npz``/``.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

WARM_S = 0.5
PERIOD_S = 0.5


def main(argv: list[str]) -> int:
    inputs_path, seconds, out_prefix = argv[0], float(argv[1]), Path(argv[2])
    log = None
    if "--trace" in argv:
        import tracing

        log = tracing.install()

    from repro.obs import get_tracer
    from repro.serve.bench import train_bench_pipeline
    from repro.serve.runtime import AffectServer, ServeConfig

    import procstat
    from common import MODEL_SEED

    config = ServeConfig()
    server = AffectServer(train_bench_pipeline(seed=MODEL_SEED), config)
    with np.load(inputs_path) as inputs:
        pool = list(inputs["pool"])
        offsets = inputs["offsets"]
        stream = inputs["stream"]
        sampled = inputs["sampled"]
    server.submit("warmup", pool[int(stream[0])], 0.0)
    if not server.poll(config.max_wait_s):
        raise RuntimeError("warm-up window was not answered")
    print("READY", flush=True)

    sessions = len(offsets)
    order = np.argsort(offsets)
    session_ids = [f"user-{s:04d}" for s in range(sessions)]
    base = 1.0  # workload clock of the first event, after the warm-up
    seq = 1  # ServeResult.seq counts submits; the warm-up window was 0
    started: dict[int, float] = {}  # measured windows not yet answered
    kept: dict[int, int] = {}  # sampled seq -> pool index
    latencies = array("d")
    labels: list[tuple[int, str]] = []
    sent = answered = failed = 0
    tracer = get_tracer()
    cpu = procstat.CpuWindow(os.getpid()) if log is not None else None

    def settle(results, end: float) -> None:
        nonlocal answered, failed
        for result in results:
            begun = started.pop(result.seq, None)
            if begun is None:
                continue  # a warm-up window
            answered += 1
            latencies.append(end - begun)
            index = kept.pop(result.seq, None)
            if result.outcome not in ("completed", "cached") or result.degraded:
                failed += 1
            elif index is not None:
                labels.append((index, result.label))

    t0 = time.perf_counter() + WARM_S
    measuring = False
    j = 0
    while True:
        start = time.perf_counter()
        if not measuring and start >= t0:
            measuring = True
            t0, cpu0 = start, time.process_time()
            facts0 = {"evictions": server.cache.evictions,
                      "spans": tracer.finished_total}
            if cpu is not None:
                cpu.start()
        elif measuring and start >= t0 + seconds:
            break
        tick, slot = divmod(j, sessions)
        s = int(order[slot])
        now = base + tick * PERIOD_S + float(offsets[s])
        index = int(stream[j % len(stream)])
        if measuring:
            sent += 1
            started[seq] = start
            if sampled[j % len(sampled)]:
                kept[seq] = index
        results = server.poll(now)
        results += server.submit(session_ids[s], pool[index], now)
        settle(results, time.perf_counter())
        seq += 1
        j += 1
    t1, cpu_s = time.perf_counter(), time.process_time() - cpu0
    in_window = answered
    if cpu is not None:
        cpu.stop()
    facts = {
        "evictions": server.cache.evictions - facts0["evictions"],
        "spans": tracer.finished_total - facts0["spans"],
        "sessions_active": len(server.sessions),
    }
    peak = procstat.peak_rss_mb(os.getpid())
    settle(server.drain(now + config.max_wait_s), time.perf_counter())
    stats = server.stats()
    result = {
        "t0_ns": int(t0 * 1e9), "t1_ns": int(t1 * 1e9),
        "cpu_s": cpu_s,
        "sent": sent, "answered": answered, "failed": failed,
        "answered_in_window": in_window,
        "peak_rss_mb": peak,
        "labels": labels,
        "facts": facts,
        "dropped": stats["dropped"], "pending": stats["pending"],
    }
    if cpu is not None:
        result["threads"] = cpu.per_thread
    np.save(out_prefix.with_suffix(".latency.npy"),
            np.frombuffer(latencies, dtype=np.float64) * 1e3)
    if log is not None:
        log.dump(out_prefix, {"pid": os.getpid()})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
