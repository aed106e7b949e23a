"""Daemon load generator: N real-socket sessions against ``repro daemon``.

``repro daemon-bench`` answers the question the in-process serve bench
cannot: does the *network* front end keep the serving contract?  It
drives ``sessions`` concurrent TCP clients — real sockets, real frames,
the daemon and the clients sharing one event loop in spawn mode — and
checks the daemon-level invariants:

- **never-silent-drop over the wire**: every window a surviving client
  sent got exactly one reply (a ``result`` — completed, cached,
  absorbed, or an explicit shed) — or the connection itself was closed
  with an explicit ``preempted`` frame;
- **chaos arm**: a slice of the clients abruptly abort their sockets
  mid-stream (no ``bye``, no FIN-then-drain — ``transport.abort()``),
  and their sessions must be *reaped*, not leaked;
- **preemption probe**: with the connection table refilled to capacity,
  opening ``extra`` more connections must bounce exactly ``extra``
  LRU victims with explicit ``preempted`` frames;
- **admin plane**: ``/healthz`` answers 200/ok and ``/metrics`` serves
  a Prometheus exposition while traffic is in flight.

The report (written to ``BENCH_daemon.json`` by the CLI) carries
windows/s, client-measured round-trip quantiles, shed fraction, outcome
mix, preemption and chaos accounting, and the pass/fail gates.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from repro.daemon import protocol
from repro.errors import ProtocolError
from repro.serve.bench import _quantiles

#: Wall seconds between one client's consecutive windows.
BENCH_PERIOD_S = 0.25
#: Post-traffic grace before asserting chaos sessions were reaped.
REAP_GRACE_S = 0.3
#: Connections the preemption probe opens past a full table.
PROBE_EXTRA = 2


def _wire_window(seq: int, signal_b64: str) -> bytes:
    """Pre-encoded window frame (identical to ``encode_frame`` output)."""
    return (
        f'{{"seq":{seq},"signal":"{signal_b64}","type":"window"}}\n'
    ).encode("ascii")


async def _http_get(host: str, port: int, path: str,
                    timeout: float = 5.0) -> tuple[int, bytes]:
    """Minimal HTTP GET over asyncio streams (no blocking urllib)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


async def _client(
    host: str,
    port: int,
    session_id: str,
    frames: list[bytes],
    period_s: float,
    phase_s: float,
    shared: dict[str, int],
    abort_after: int | None = None,
    drain_timeout_s: float = 10.0,
) -> dict[str, object]:
    """One bench session: hello, paced windows, reply matching, bye.

    ``abort_after`` turns the client into a chaos arm member: after that
    many windows it hard-aborts the transport mid-stream.
    """
    record: dict[str, object] = {
        "session": session_id, "sent": 0, "replies": 0, "silent": 0,
        "rtts": [], "outcomes": {}, "preempted": False, "aborted": False,
        "chaos": abort_after is not None, "error": None,
    }
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        record["error"] = f"connect: {exc}"
        return record
    decoder = protocol.FrameDecoder()
    outstanding: dict[int, float] = {}
    sending_done = False
    counted = False
    preempted = asyncio.Event()
    drained = asyncio.Event()
    outcomes: dict[str, int] = record["outcomes"]  # type: ignore[assignment]

    async def reader_loop() -> None:
        nonlocal counted
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for frame in decoder.feed(data):
                    kind = frame.get("type")
                    if kind == "result":
                        sent_at = outstanding.pop(frame.get("seq"), None)
                        if sent_at is not None:
                            record["rtts"].append(  # type: ignore[union-attr]
                                time.perf_counter() - sent_at
                            )
                        outcome = str(frame.get("outcome"))
                        outcomes[outcome] = outcomes.get(outcome, 0) + 1
                        record["replies"] = int(record["replies"]) + 1
                        if sending_done and not outstanding:
                            drained.set()
                    elif kind == "welcome":
                        if not counted:
                            counted = True
                            shared["active"] += 1
                            shared["peak"] = max(shared["peak"],
                                                 shared["active"])
                    elif kind == "preempted":
                        record["preempted"] = True
                        preempted.set()
                        return
                    elif kind == "goodbye":
                        return
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            # Unblock the send side on any teardown; whatever is still
            # outstanding then counts as silent (unless explicitly
            # preempted or self-aborted).
            drained.set()

    reads = asyncio.create_task(reader_loop())
    try:
        writer.write(protocol.encode_frame(protocol.hello_frame(session_id)))
        await asyncio.sleep(phase_s)
        for seq, payload in enumerate(frames):
            if abort_after is not None and seq >= abort_after:
                record["aborted"] = True
                writer.transport.abort()
                break
            if preempted.is_set() or reads.done():
                break
            outstanding[seq] = time.perf_counter()
            writer.write(payload)
            record["sent"] = int(record["sent"]) + 1
            await asyncio.sleep(period_s)
        sending_done = True
        if not outstanding:
            drained.set()
        if not record["aborted"]:
            try:
                await asyncio.wait_for(drained.wait(), drain_timeout_s)
            except asyncio.TimeoutError:
                pass
            if not record["preempted"]:
                try:
                    writer.write(protocol.encode_frame({"type": "bye"}))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
        try:
            await asyncio.wait_for(reads, 5.0)
        except asyncio.TimeoutError:
            reads.cancel()
    except (ConnectionError, OSError) as exc:
        record["error"] = str(exc)
    finally:
        if counted:
            shared["active"] -= 1
        try:
            writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass
    if not record["aborted"] and not record["preempted"]:
        record["silent"] = len(outstanding)
    return record


async def _open_probe(host: str, port: int,
                      session_id: str) -> tuple[asyncio.StreamReader,
                                                asyncio.StreamWriter,
                                                protocol.FrameDecoder]:
    """Open a hello-only connection and wait for its welcome."""
    reader, writer = await asyncio.open_connection(host, port)
    decoder = protocol.FrameDecoder()
    writer.write(protocol.encode_frame(protocol.hello_frame(session_id)))

    async def until_welcome() -> None:
        while True:
            data = await reader.read(4096)
            if not data:
                return
            for frame in decoder.feed(data):
                if frame.get("type") == "welcome":
                    return

    await asyncio.wait_for(until_welcome(), 5.0)
    return reader, writer, decoder


async def _expect_preempted(reader: asyncio.StreamReader,
                            decoder: protocol.FrameDecoder,
                            timeout_s: float = 2.0) -> bool:
    try:
        while True:
            data = await asyncio.wait_for(reader.read(4096), timeout_s)
            if not data:
                return False
            for frame in decoder.feed(data):
                if frame.get("type") == "preempted":
                    return True
    except (asyncio.TimeoutError, ConnectionError, OSError, ProtocolError):
        return False


async def _preemption_probe(host: str, port: int, fill: int,
                            extra: int) -> dict[str, int]:
    """Refill the connection table, overflow it, count explicit bounces.

    Opens ``fill`` hello-only connections (oldest first, so LRU order is
    deterministic), then ``extra`` more past capacity; the first
    ``extra`` connections must each receive a ``preempted`` frame.
    """
    conns = []
    try:
        for i in range(fill):
            conns.append(await _open_probe(host, port, f"probe-{i:04d}"))
            await asyncio.sleep(0.005)
        for i in range(extra):
            conns.append(
                await _open_probe(host, port, f"probe-{fill + i:04d}")
            )
        bounced = await asyncio.gather(*[
            _expect_preempted(reader, decoder)
            for reader, _, decoder in conns[:extra]
        ])
        return {"filled": fill, "extra": extra,
                "preempted_frames": int(sum(bounced))}
    finally:
        for _, writer, _ in conns:
            try:
                writer.close()
            except (ConnectionError, RuntimeError, OSError):
                pass


def _make_frames(
    sessions: int, windows_each: int, seed: int, pool_b64: list[str],
) -> list[list[bytes]]:
    """Per-session pre-encoded window frames drawn from the shared pool."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(pool_b64), size=(sessions, windows_each))
    return [
        [_wire_window(seq, pool_b64[int(picks[s, seq])])
         for seq in range(windows_each)]
        for s in range(sessions)
    ]


async def _drive_clients(
    host: str, port: int, sessions: int, chaos_sessions: int,
    frames: list[list[bytes]], period_s: float, seed: int,
) -> tuple[list[dict], dict[str, int], float]:
    rng = np.random.default_rng(seed + 1)
    phases = rng.uniform(0.0, period_s, size=sessions)
    windows_each = len(frames[0]) if frames else 0
    abort_after = max(1, windows_each // 2)
    shared = {"active": 0, "peak": 0}
    start = time.perf_counter()
    records = await asyncio.gather(*[
        _client(
            host, port, f"bench-{s:04d}", frames[s], period_s,
            float(phases[s]), shared,
            abort_after=abort_after if s < chaos_sessions else None,
        )
        for s in range(sessions)
    ])
    return list(records), shared, time.perf_counter() - start


def _aggregate(records: list[dict], wall_s: float,
               windows_each: int) -> dict[str, object]:
    sent = sum(int(r["sent"]) for r in records)
    replies = sum(int(r["replies"]) for r in records)
    silent = sum(int(r["silent"]) for r in records)
    rtts = [rtt for r in records for rtt in r["rtts"]]
    outcomes: dict[str, int] = {}
    for r in records:
        for outcome, n in r["outcomes"].items():
            outcomes[outcome] = outcomes.get(outcome, 0) + n
    shed = outcomes.get("shed", 0)
    sustained = sum(
        1 for r in records
        if not r["chaos"] and r["error"] is None and not r["preempted"]
        and int(r["sent"]) == windows_each and int(r["silent"]) == 0
    )
    errors = [r["error"] for r in records if r["error"]]
    return {
        "windows_sent": sent,
        "replies": replies,
        "silent_drops": silent,
        "windows_per_s": replies / wall_s if wall_s > 0 else 0.0,
        "wall_s": wall_s,
        "rtt_s": _quantiles(rtts),
        "outcomes": outcomes,
        "shed": shed,
        "shed_frac": shed / replies if replies else 0.0,
        "sustained_sessions": sustained,
        "client_errors": errors,
    }


async def _bench_async(
    sessions: int,
    seconds: float,
    seed: int,
    chaos_sessions: int,
    max_inflight: int,
    max_batch: int,
    period_s: float,
    bundle_dir: str,
    pipeline,
    connect: tuple[str, int] | None,
    admin: tuple[str, int] | None,
) -> dict[str, object]:
    from repro.serve.bench import POOL_SIZE, make_pool, train_bench_pipeline

    windows_each = max(2, int(round(seconds / period_s)))
    spawn = connect is None
    daemon = None
    if spawn:
        from repro.daemon.server import DaemonConfig, ReproDaemon
        from repro.serve.runtime import AffectServer, ServeConfig

        if pipeline is None:
            pipeline = train_bench_pipeline(seed=seed)
        server = AffectServer(pipeline, ServeConfig(
            max_batch=max_batch, max_wait_s=0.1,
        ))
        daemon = ReproDaemon(server, DaemonConfig(
            port=0, admin_port=0, max_connections=sessions,
            max_inflight=max_inflight, bundle_dir=bundle_dir,
        ))
        await daemon.start()
        host, port = daemon.config.host, daemon.port
        admin_host, admin_port = daemon.config.host, daemon.admin_port
        label_names = pipeline.classifier.label_names
    else:
        host, port = connect
        admin_host, admin_port = admin if admin is not None else (host, 0)
        if pipeline is None:
            pipeline = train_bench_pipeline(seed=seed)
        label_names = pipeline.classifier.label_names

    try:
        pool, _ = make_pool(label_names, POOL_SIZE, seed)
        pool_b64 = [protocol.encode_signal(w) for w in pool]
        frames = _make_frames(sessions, windows_each, seed, pool_b64)
        records, shared, wall_s = await _drive_clients(
            host, port, sessions, chaos_sessions, frames, period_s, seed,
        )
        traffic = _aggregate(records, wall_s, windows_each)
        traffic["peak_concurrent"] = shared["peak"]

        # Chaos reap check: after a short grace every bench session —
        # aborted or cleanly closed — must be out of the daemon's tables.
        await asyncio.sleep(REAP_GRACE_S)
        chaos_ids = [f"bench-{s:04d}" for s in range(chaos_sessions)]
        all_ids = [f"bench-{s:04d}" for s in range(sessions)]
        if spawn:
            leaked_sessions = [
                sid for sid in all_ids if sid in daemon.server.sessions
            ]
            leaked_routes = [
                sid for sid in all_ids if sid in daemon.route_ids()
            ]
        else:
            leaked_sessions, leaked_routes = [], []
        chaos = {
            "sessions": chaos_sessions,
            "aborted": sum(1 for r in records if r["aborted"]),
            "chaos_ids": chaos_ids,
            "leaked_sessions": leaked_sessions,
            "leaked_routes": leaked_routes,
        }

        # Preemption probe: refill the table to capacity, overflow it.
        if spawn:
            probe = await _preemption_probe(
                host, port, fill=daemon.config.max_connections,
                extra=PROBE_EXTRA,
            )
        else:
            probe = {"filled": 0, "extra": 0, "preempted_frames": 0}

        # Admin plane, scraped over the wire like an operator would.
        healthz_status, healthz_body = (0, b"")
        metrics_status, metrics_body = (0, b"")
        if admin_port:
            healthz_status, healthz_body = await _http_get(
                admin_host, admin_port, "/healthz"
            )
            metrics_status, metrics_body = await _http_get(
                admin_host, admin_port, "/metrics"
            )
        try:
            healthz = json.loads(healthz_body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            healthz = {}
        admin_report = {
            "healthz_status": healthz_status,
            "healthz": healthz,
            "metrics_status": metrics_status,
            "metrics_bytes": len(metrics_body),
            "metrics_has_repro": b"repro_" in metrics_body,
        }
        server_stats = daemon.server.stats() if spawn else healthz.get(
            "server", {}
        )
        preemptions = daemon.preemptions if spawn else int(
            healthz.get("preemptions", 0)
        )
    finally:
        if daemon is not None:
            await daemon.stop()

    gates = {
        "concurrent_ok": traffic["peak_concurrent"] >= sessions,
        "sustained_ok": (traffic["sustained_sessions"]
                         == sessions - chaos_sessions),
        "never_silent_ok": traffic["silent_drops"] == 0,
        "chaos_reaped_ok": not chaos["leaked_sessions"]
                           and not chaos["leaked_routes"],
        "preempt_ok": (not spawn
                       or probe["preempted_frames"] == probe["extra"]),
        "healthz_ok": healthz_status == 200 and bool(healthz.get("ok")),
        "metrics_ok": (metrics_status == 200
                       and admin_report["metrics_has_repro"]),
        "no_drops": int(server_stats.get("dropped", 0)) == 0,
    }
    gates["ok"] = all(gates.values())
    return {
        "config": {
            "sessions": sessions,
            "seconds": seconds,
            "seed": seed,
            "period_s": period_s,
            "windows_per_session": windows_each,
            "chaos_sessions": chaos_sessions,
            "max_inflight": max_inflight,
            "max_batch": max_batch,
            "probe_extra": PROBE_EXTRA,
            "mode": "spawn" if spawn else "connect",
        },
        "traffic": traffic,
        "chaos": chaos,
        "preemption": {**probe, "daemon_preemptions": preemptions},
        "admin": admin_report,
        "server": server_stats,
        "gates": gates,
    }


def run_daemon_bench(
    sessions: int = 64,
    seconds: float = 4.0,
    seed: int = 0,
    chaos_sessions: int = 8,
    max_inflight: int = 8,
    max_batch: int = 32,
    period_s: float = BENCH_PERIOD_S,
    bundle_dir: str = "incidents",
    pipeline=None,
    connect: tuple[str, int] | None = None,
    admin: tuple[str, int] | None = None,
) -> dict[str, object]:
    """Run the full daemon bench; returns the report with its gates.

    Spawn mode (the default) hosts the daemon and all clients on one
    event loop over loopback sockets; ``connect=(host, port)`` drives an
    externally started daemon instead (``admin=(host, port)`` locates
    its admin plane), in which case the in-process leak/preemption
    introspection is skipped and only wire-visible gates apply.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if not 0 <= chaos_sessions <= sessions:
        raise ValueError("chaos_sessions must be within [0, sessions]")
    return asyncio.run(_bench_async(
        sessions=sessions, seconds=seconds, seed=seed,
        chaos_sessions=chaos_sessions, max_inflight=max_inflight,
        max_batch=max_batch, period_s=period_s, bundle_dir=bundle_dir,
        pipeline=pipeline, connect=connect, admin=admin,
    ))
