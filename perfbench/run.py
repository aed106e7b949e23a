"""perfbench: the repository's benchmark of the serving stack.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``layers.WORKLOADS`` for why each exists):

- ``serve-replay``: an in-process ``AffectServer`` driven in a closed
  loop by 64 sessions over a 24-utterance pool (``replay.py``);
- ``wire-saturate``: ``repro daemon --batch 16`` driven by 2 connections
  that each keep 8 unique windows outstanding (``loadgen.py``);
- ``wire-paced``: the default ``repro daemon`` driven by 2 connections
  that each send 12.5 unique windows/s in an open loop.

Every run launches the system under test ``LAUNCHES`` times, each a
fresh process with the caller's environment (BLAS/OpenMP thread
variables left as found).  Each launch's set-up time is measured, then
the launch is warmed and measured for its share of ``--seconds``; the
end-to-end metrics pool the launches.  ``--trace 1`` adds one traced
launch measured for ``--seconds``, whose spans (``tracing.py``) give the
per-layer metrics, the tracing overhead and a Chrome trace under
``.bench_build/perfbench/``.  Without ``--workload`` the three workloads
run in turn, each printing its own result line.

Each run checks that served labels match the reference loop, that every
window sent was answered exactly once, and that the workload ran as
designed (no cache hits on the wire, no sheds and only full flushes at
saturation, a punctual generator when paced).  Any failed check exits 1
without numbers.  The last line of output is the result as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

import common

common.require_checkout()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
from common import OUT, BENCH_DIR, ROOT, median, quantile  # noqa: E402
from sut import Launch  # noqa: E402

#: Fresh system-under-test processes per run.  Each is set up (its
#: set-up time is one ``setup_s`` sample), warmed and measured for an
#: equal share of ``--seconds``; the run pools the three.  Spreading the
#: measurement over processes and over a longer stretch of wall time
#: averages out per-process effects (memory layout, hash seeds) and some
#: of the host's speed swings.
LAUNCHES = 3
#: A run that takes longer than this fails.
DEADLINE_S = 175
#: Budget for a launch to answer its warm-up window.
START_TIMEOUT_S = 120.0
#: The paced generator may send at most this late (p95) for a valid run:
#: a tenth of the ~250 ms batch deadline that sets wire-paced latency.
LATE_BOUND_MS = 25.0
#: Windows each wire-saturate connection keeps outstanding (the daemon's
#: default per-session in-flight cap).
SATURATE_DEPTH = 8
#: Per-connection send period of wire-paced (12.5 windows/s).
PACED_PERIOD_S = 0.08
CONNECTIONS = 2
REPLAY_SESSIONS = 64
REPLAY_STREAM = 4096


# -- serve-replay ------------------------------------------------------------

def run_replay(seed: int, seconds: float, traced: bool) -> list[dict]:
    """One measured chunk per launch of ``replay.py``."""
    rng = np.random.default_rng([seed, 2])
    pool = common.make_pool()
    inputs = OUT / "serve-replay.inputs.npz"
    np.savez(inputs, pool=np.stack(pool),
             offsets=rng.uniform(0.0, 0.5, REPLAY_SESSIONS),
             stream=rng.integers(0, len(pool), REPLAY_STREAM),
             sampled=rng.random(REPLAY_STREAM) < 1.0 / common.SAMPLE_EVERY)
    launches = 1 if traced else LAUNCHES
    chunks = []
    for i in range(launches):
        prefix = OUT / f"serve-replay-{'traced' if traced else i}"
        args = [str(BENCH_DIR / "replay.py"), str(inputs),
                str(seconds / launches), str(prefix)]
        launch = Launch(args + (["--trace"] if traced else []))
        try:
            launch.expect("READY", START_TIMEOUT_S)
            setup_s = time.perf_counter() - launch.started
            line = launch.expect("RESULT ", seconds + START_TIMEOUT_S)
            _exited_cleanly(launch, launch.wait())
        finally:
            launch.kill()
        out = json.loads(line[len("RESULT "):])
        chunk = {
            "setup_s": setup_s,
            "seconds": (out["t1_ns"] - out["t0_ns"]) / 1e9,
            "answered_in_window": out["answered_in_window"],
            "cpu_s": out["cpu_s"],
            "latencies": np.load(prefix.with_suffix(".latency.npy")),
            "peak_rss_mb": out["peak_rss_mb"],
            "attempted": out["sent"], "failed": out["failed"],
            "sent": out["sent"], "answered": out["answered"],
            "duplicates": 0,
            # Every sample replays one of the pool's utterances: check
            # each distinct (utterance, served label) pair once.
            "labels": {(i, label) for i, label in out["labels"]},
            "accounting": {"dropped": out["dropped"],
                           "pending": out["pending"]},
            "validity": [],
            "late_ms": [],
        }
        if traced:
            arrays, meta = tracing.load(prefix)
            facts = out["facts"]
            chunk["trace"] = {
                "arrays": arrays, "meta": meta,
                "t0_ns": out["t0_ns"], "t1_ns": out["t1_ns"],
                "facts": {
                    "answered": out["answered_in_window"],
                    "thread_cpu_s": layers.classify_threads(
                        out["threads"], meta["threads"], meta["pid"]),
                    "daemon_shed": 0,
                    "evictions": facts["evictions"],
                    "sessions_active": facts["sessions_active"],
                    "spans_per_window": facts["spans"] / max(out["sent"], 1),
                    "sampler_ms_per_s": 0.0,
                    "late_ms_p95": 0.0,
                },
            }
        chunks.append(chunk)
    labels = set().union(*(c["labels"] for c in chunks))
    for chunk in chunks:
        chunk["labels"] = []
    chunks[0]["labels"] = [(pool[i], label) for i, label in sorted(labels)]
    return chunks


# -- wire-saturate / wire-paced ----------------------------------------------

def run_wire(seed: int, seconds: float, traced: bool, mode: str) -> list[dict]:
    """One measured chunk per launch of the daemon."""
    windows = common.WireWindows(common.make_pool(), seed)
    rng = np.random.default_rng([seed, 3])
    phases = (list(rng.uniform(0.0, PACED_PERIOD_S, CONNECTIONS))
              if mode == "paced" else [0.0] * CONNECTIONS)
    daemon_args = ["--port", "0", "--admin-port", "0",
                   "--bundle-dir", str(OUT / "incidents")]
    if mode == "saturate":
        daemon_args += ["--batch", "16"]
    prefix = OUT / f"wire-{mode}-traced"
    argv = ([str(BENCH_DIR / "daemon_launch.py"), str(prefix), *daemon_args]
            if traced else ["-m", "repro.cli", "daemon", *daemon_args])
    launches = 1 if traced else LAUNCHES
    chunks = []
    for i in range(launches):
        launch = Launch(argv)
        try:
            port = _port(launch.expect("ingest:", START_TIMEOUT_S))
            admin = _port(launch.expect("admin:", START_TIMEOUT_S))
            ready = asyncio.run(loadgen.warm_up("127.0.0.1", port, windows,
                                                f"warmup-{i}"))
            setup_s = ready - launch.started
            out = asyncio.run(loadgen.drive(
                "127.0.0.1", port, admin, launch.pid, windows, mode,
                seconds / launches, phases, rng, depth=SATURATE_DEPTH,
                period_s=PACED_PERIOD_S))
            _exited_cleanly(launch, launch.stop())
        finally:
            launch.kill()
        chunk = _wire_chunk(out, mode, windows)
        chunk["setup_s"] = setup_s
        if traced:
            arrays, meta = tracing.load(prefix)
            sampler = meta.get("sampler")
            chunk["trace"] = {
                "arrays": arrays, "meta": meta,
                "t0_ns": int(out["t0"] * 1e9), "t1_ns": int(out["t1"] * 1e9),
                "facts": dict(
                    chunk.pop("facts"),
                    answered=chunk["answered_in_window"],
                    thread_cpu_s=layers.classify_threads(
                        out["cpu"].per_thread, meta["threads"], meta["pid"]),
                    spans_per_window=meta["spans_total"]
                    / max(meta["submitted"], 1),
                    sampler_ms_per_s=(
                        sampler["sampling_time_s"] * 1e3
                        / sampler["duration_s"]
                        if sampler and sampler["duration_s"] else 0.0),
                ),
            }
        chunks.append(chunk)
    return chunks


def _wire_chunk(out: dict, mode: str, windows: common.WireWindows) -> dict:
    """One daemon launch's traffic as a measured chunk."""
    t0, t1 = out["t0"], out["t1"]
    records = out["records"]
    replied = [r for r in records if r[3] is not None]
    in_window = [r for r in replied if t0 <= r[3] < t1]
    if mode == "saturate":
        measured = [r for r in records if t0 <= r[2] < t1]
        latencies = [(r[3] - r[2]) * 1e3 for r in in_window]
    else:
        measured = [r for r in records if t0 <= r[1] < t1]
        latencies = [(r[3] - r[1]) * 1e3 for r in measured if r[3] is not None]
    failed = sum(1 for r in measured if r[4] not in ("completed", "cached")
                 or r[6])
    by_window = {r[0]: r for r in records}
    labels = [(signal, by_window[k][5]) for k, signal in windows.kept.items()
              if k in by_window and by_window[k][4] in ("completed", "cached")
              and not by_window[k][6]]
    m0, m1, health = out["metrics0"], out["metrics1"], out["health"]

    def delta(series: str) -> float:
        return m1.get(series, 0.0) - m0.get(series, 0.0)

    hits = delta("repro_serve_cache_hits")
    inflight_shed = delta('repro_daemon_shed{gate="inflight"}')
    deadline = delta("repro_serve_batch_flush_deadline")
    full = delta("repro_serve_batch_flush_full")
    hit_rate = health["server"]["cache_hit_rate"]
    validity = [("cache hits on the wire", hits == 0 and hit_rate == 0.0,
                 f"{hits:g} hits in the interval, hit rate {hit_rate:g} "
                 "over the launch")]
    if mode == "saturate":
        validity += [
            ("no in-flight sheds",
             inflight_shed == 0 and health["daemon_shed"] == 0,
             f"{inflight_shed:g} in the interval, "
             f"{health['daemon_shed']} over the launch"),
            ("only full flushes", deadline == 0 and full > 0,
             f"{full:g} full, {deadline:g} deadline flushes"),
        ]
    return {
        "seconds": t1 - t0,
        "answered_in_window": len(in_window),
        "cpu_s": out["cpu"].cpu_s,
        "latencies": latencies,
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": len(measured), "failed": failed,
        "sent": len(records), "answered": len(replied),
        "duplicates": out["duplicates"],
        "labels": labels,
        "accounting": {"drained": out["drained"],
                       "dropped": health["server"]["dropped"],
                       "pending": health["server"]["pending"]},
        "validity": validity,
        "late_ms": ([(r[2] - r[1]) * 1e3 for r in measured]
                    if mode == "paced" else []),
        "facts": {"daemon_shed": inflight_shed,
                  "evictions": delta("repro_serve_cache_evictions"),
                  "sessions_active": health["sessions_active"],
                  "late_ms_p95": quantile(
                      [(r[2] - r[1]) * 1e3 for r in measured], 0.95)
                  if mode == "paced" else 0.0},
    }


def _port(line: str) -> int:
    return int(line.split()[1].rstrip("/").rsplit(":", 1)[1])


def _exited_cleanly(launch: Launch, code: int) -> None:
    if code != 0:
        raise RuntimeError(f"system under test exited {code}: {launch.tail()}")


# -- checks and metrics ------------------------------------------------------

def check(chunks: list[dict]) -> tuple[list[str], str]:
    """Problems with a run's correctness, accounting and validity.

    Also returns the correctness tally, e.g. ``"96/96"``.
    """
    problems = []
    pairs = [pair for chunk in chunks for pair in chunk["labels"]]
    tally = "0/0"
    if not pairs:
        problems.append("correctness: no sampled window was answered")
    else:
        expected = common.reference_labels([signal for signal, _ in pairs])
        wrong = [(e, served) for e, (_, served) in zip(expected, pairs)
                 if e != served]
        tally = f"{len(pairs) - len(wrong)}/{len(pairs)}"
        if wrong:
            problems.append(f"correctness: {len(wrong)}/{len(pairs)} served "
                            f"labels differ from the reference, e.g. {wrong[:3]}")
    for i, chunk in enumerate(chunks):
        acct = chunk["accounting"]
        if (chunk["sent"] != chunk["answered"] or chunk["duplicates"]
                or acct.get("drained") is False or acct["dropped"]
                or acct["pending"]):
            problems.append(
                f"accounting, launch {i}: {chunk['sent']} sent, "
                f"{chunk['answered']} answered, {chunk['duplicates']} "
                f"duplicate replies, {acct}")
        for name, ok, detail in chunk["validity"]:
            if not ok:
                problems.append(f"validity, launch {i}: {name}: {detail}")
    late = [ms for chunk in chunks for ms in chunk["late_ms"]]
    if late and quantile(late, 0.95) > LATE_BOUND_MS:
        problems.append(f"validity: generator lateness p95 "
                        f"{quantile(late, 0.95):.2f} ms exceeds "
                        f"{LATE_BOUND_MS:g} ms")
    return problems, tally


def end_to_end(chunks: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run, pooled over its launches."""
    answered = sum(c["answered_in_window"] for c in chunks)
    latencies = np.concatenate([np.asarray(c["latencies"], dtype=float)
                                for c in chunks])
    return {
        "windows_per_s": answered / sum(c["seconds"] for c in chunks),
        "cpu_ms_per_window": sum(c["cpu_s"] for c in chunks) * 1e3
        / max(answered, 1),
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p95_ms": quantile(latencies, 0.95),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in chunks]),
        "setup_s": median([c["setup_s"] for c in chunks]),
    }


def _check_config() -> None:
    """Exit 2 when BENCHMARK.json and ``layers`` name different metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    config = json.loads(path.read_text())
    ours = {
        "workloads": set(layers.WORKLOADS),
        "end_to_end": {(n, u) for n, (u, _, _) in layers.END_TO_END.items()},
        "per_layer": {(n, u) for n, (u, _) in layers.PER_LAYER.items()},
    }
    theirs = {
        "workloads": {w["name"] for w in config["workloads"]},
        "end_to_end": {(m["name"], m["unit"]) for m in config["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in config["per_layer"]},
    }
    for key in ours:
        if ours[key] != theirs[key]:
            print(f"perfbench: BENCHMARK.json {key} differ from layers.py: "
                  f"{sorted(ours[key] ^ theirs[key])}", file=sys.stderr)
            raise SystemExit(2)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Measure one workload, print its tables and its result line."""
    signal.alarm(DEADLINE_S)
    try:
        def measure(traced: bool) -> list[dict]:
            if workload == "serve-replay":
                return run_replay(seed, seconds, traced)
            return run_wire(seed, seconds, traced, workload.split("-", 1)[1])

        env = common.fingerprint()
        untraced = measure(traced=False)
        problems, tally = check(untraced)
        traced = None
        if trace and not problems:
            traced = measure(traced=True)
            problems += [f"traced run: {p}" for p in check(traced)[0]]
        if problems:
            for problem in problems:
                print(f"perfbench: {workload}: {problem}", file=sys.stderr)
            return 1
        _report(workload, seed, seconds, env, untraced, tally, traced)
        return 0
    finally:
        signal.alarm(0)


def _report(workload: str, seed: int, seconds: float, env: dict,
            untraced: list[dict], tally: str,
            traced: list[dict] | None) -> None:
    e2e = end_to_end(untraced)
    failed = sum(c["failed"] for c in untraced)
    attempted = sum(c["attempted"] for c in untraced)
    samples = sum(len(c["latencies"]) for c in untraced)
    setups = [c["setup_s"] for c in untraced]
    late = [ms for c in untraced for ms in c["late_ms"]]
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "env": env, "setup_s": setups, "end_to_end": e2e,
              "latency_samples": samples, "correctness": tally,
              "attempted": attempted, "failed": failed,
              "late_ms_p95": quantile(late, 0.95)}
    print(f"== perfbench {workload} seed={seed} seconds={seconds:g} ==")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    traced_e2e = end_to_end(traced) if traced is not None else {}
    if traced_e2e:
        print(f"  {'':<22} {'untraced':>12} {'':<6} {'traced':>12} "
              f"{'overhead':>12}")
    for name, value in e2e.items():
        unit = layers.END_TO_END[name][0]
        line = f"  {name:<22} {value:>12.4f} {unit:<6}"
        if traced_e2e:
            line += (f" {traced_e2e[name]:>12.4f} "
                     f"{traced_e2e[name] - value:>+12.4f}")
        print(line)
    print(f"  {'failed_frac':<22} {failed / attempted:>12.4f} ratio "
          f"({failed} of {attempted} windows sent were not answered live)")
    print(f"  latency over {samples} windows; set-ups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s; "
          f"{tally} sampled labels match the reference")
    metrics = e2e
    if traced is not None:
        trace = traced[0]["trace"]
        agg = tracing.analyse(trace["arrays"], trace["meta"]["names"],
                              trace["t0_ns"], trace["t1_ns"])
        metrics = layers.per_layer(agg, trace["facts"])
        chrome = OUT / f"{workload}-{seed}.trace.json"
        written, total = tracing.write_chrome_trace(
            trace["arrays"], trace["meta"], trace["t0_ns"], trace["t1_ns"],
            chrome)
        print(f"-- per layer, traced run ({written} of {total} spans written "
              f"to {chrome.relative_to(ROOT)}) --")
        for name, value in metrics.items():
            moves = layers.TARGETS[name.split(".", 1)[0]]
            print(f"  {name:<35} {value:>12.4f} {layers.PER_LAYER[name][0]:<6} "
                  f"moves {'; '.join(f'{m} on {w}' for m, w in moves)}")
        for name, value in traced_e2e.items():
            metrics[f"trace_overhead.{name}"] = value - e2e[name]
        report["per_layer"] = metrics
        report["traced_end_to_end"] = traced_e2e
    (OUT / f"{workload}-{seed}.result.json").write_text(
        json.dumps(report, indent=2, sort_keys=True))
    units = layers.PER_LAYER if traced is not None else layers.END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=sorted(layers.WORKLOADS),
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_config()
    # Past the deadline the TimeoutError unwinds through every launch's
    # cleanup, so no system-under-test process outlives the run.
    signal.signal(signal.SIGALRM, _deadline)
    OUT.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(layers.WORKLOADS)
    return max([run_workload(w, args.seed, args.seconds, bool(args.trace))
                for w in workloads])


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


if __name__ == "__main__":
    sys.exit(main())
