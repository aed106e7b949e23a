"""The daemon's admin plane: a hand-rolled, stdlib-only HTTP/1.1 GET server.

Three read-only endpoints on the admin listener, small enough to audit
in one sitting and dependency-free by construction (no ``http.server``
threading, no frameworks — just the asyncio streams the daemon already
owns):

- ``/healthz`` — liveness + the serve runtime's health snapshot
  (``503`` when the circuit breaker is open or accounting drops a
  window, so a probe can restart the process);
- ``/metrics`` — the full Prometheus text exposition of the process
  registry (scrape target);
- ``/bundles`` and ``/bundles/<id>`` — the flight recorder's incident
  bundles, inlined as JSON (``incident.json`` + ``snapshots.jsonl`` +
  ``trace.json``), so an operator can pull the black box of a page
  straight off the box that fired it;
- ``/debug/prof/cpu[?seconds=N]`` — a collapsed-stack CPU profile
  (flamegraph.pl/speedscope format): the resident sampler's cumulative
  profile by default, or a fresh ``N``-second window (clamped to
  :data:`PROF_MAX_SECONDS`) collected without blocking the plane —
  the wait is an ``await``, so ``/metrics`` keeps serving meanwhile;
- ``/debug/prof/heap`` — the allocation profile as JSON (top sites,
  per-stage net bytes, growth rate); the first hit lazily starts
  ``tracemalloc``, which is deliberately not always-on.

Bundle ids are matched against the recorder's own bundle list (never
joined into a path from user input), which makes path traversal
structurally impossible rather than merely filtered.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import get_registry
from repro.obs.export import prometheus_text
from repro.obs.prof import StackSampler
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.daemon.server import ReproDaemon

#: Budget for reading one request head (line + headers).
_READ_TIMEOUT_S = 5.0
_MAX_HEADER_LINES = 64

#: Ceiling on a ``/debug/prof/cpu?seconds=N`` window.  Admin clients
#: (curl, probes) time out in single-digit seconds; anything longer
#: belongs in the resident sampler's cumulative profile anyway.
PROF_MAX_SECONDS = 5.0


def clamp_prof_seconds(seconds: float) -> float:
    """A requested profiling window clamped to ``[0, PROF_MAX_SECONDS]``."""
    if not seconds > 0.0:  # also normalises NaN to 0
        return 0.0
    return min(seconds, PROF_MAX_SECONDS)


def _parse_prof_seconds(target: str) -> float | None:
    """The clamped ``seconds`` query value; 0 if absent, None if malformed."""
    query = target.partition("?")[2]
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == "seconds":
            try:
                return clamp_prof_seconds(float(value))
            except ValueError:
                return None
    return 0.0


def _response(status: str, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: str, payload: object) -> bytes:
    body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    return _response(status, "application/json", body + b"\n")


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _bundle_ids(daemon: "ReproDaemon") -> list[str]:
    return [Path(str(p)).name for p in daemon.recorder.bundles]


def _bundle_payload(daemon: "ReproDaemon",
                    bundle_id: str) -> dict[str, object] | None:
    """Inline one recorded incident bundle, or ``None`` if unknown.

    Only ids that exactly match a recorded bundle's directory name are
    served; the lookup walks the recorder's list instead of joining the
    id into a filesystem path.
    """
    for recorded in daemon.recorder.bundles:
        path = Path(str(recorded))
        if path.name != bundle_id:
            continue
        snapshots = []
        snapshots_path = path / "snapshots.jsonl"
        if snapshots_path.exists():
            for line in snapshots_path.read_text().splitlines():
                if line.strip():
                    try:
                        snapshots.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        return {
            "id": bundle_id,
            "incident": _read_json(path / "incident.json"),
            "snapshots": snapshots,
            "trace": _read_json(path / "trace.json"),
        }
    return None


def route(daemon: "ReproDaemon", method: str, target: str) -> bytes:
    """One admin request to one wire-ready response."""
    if method != "GET":
        return _json_response("405 Method Not Allowed",
                              {"error": f"method {method} not allowed"})
    path = target.split("?", 1)[0]
    if path == "/healthz":
        health = daemon.health()
        status = "200 OK" if health["ok"] else "503 Service Unavailable"
        return _json_response(status, health)
    if path == "/metrics":
        body = prometheus_text(get_registry()).encode("utf-8")
        return _response(
            "200 OK", "text/plain; version=0.0.4; charset=utf-8", body
        )
    if path in ("/bundles", "/bundles/"):
        return _json_response("200 OK", {"bundles": _bundle_ids(daemon)})
    if path.startswith("/bundles/"):
        bundle_id = path[len("/bundles/"):]
        payload = _bundle_payload(daemon, bundle_id)
        if payload is None:
            return _json_response(
                "404 Not Found", {"error": f"no bundle {bundle_id!r}"}
            )
        return _json_response("200 OK", payload)
    return _json_response("404 Not Found", {"error": f"no route {path}"})


async def _route_prof(daemon: "ReproDaemon", path: str,
                      target: str) -> bytes:
    """One ``/debug/prof/<kind>`` request to a wire-ready response."""
    kind = path[len("/debug/prof/"):]
    if kind == "cpu":
        seconds = _parse_prof_seconds(target)
        if seconds is None:
            return _json_response(
                "400 Bad Request", {"error": "malformed seconds parameter"}
            )
        if seconds == 0.0:
            sampler = daemon.profiler
        else:
            # A fresh window: a second sampler (private registry, so the
            # scrape gauges stay the resident sampler's) runs alongside
            # the resident one while this handler awaits — other admin
            # connections, /metrics included, keep being served.
            sampler = StackSampler(
                interval_s=daemon.profiler.interval_s,
                registry=MetricsRegistry(),
            )
            sampler.start()
            try:
                await asyncio.sleep(seconds)
            finally:
                sampler.stop()
        body = sampler.collapsed().encode("utf-8")
        return _response("200 OK", "text/plain; charset=utf-8", body)
    if kind == "heap":
        return _json_response("200 OK", daemon.heap_profiler().report())
    return _json_response(
        "404 Not Found", {"error": f"no profile kind {kind!r}"}
    )


async def route_async(daemon: "ReproDaemon", method: str,
                      target: str) -> bytes:
    """Async routing front door: prof endpoints await, the rest delegate."""
    path = target.split("?", 1)[0]
    if method == "GET" and path.startswith("/debug/prof/"):
        return await _route_prof(daemon, path, target)
    return route(daemon, method, target)


async def handle_admin(daemon: "ReproDaemon", reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
    """Serve one admin HTTP exchange, then close (Connection: close)."""
    try:
        request_line = await asyncio.wait_for(
            reader.readline(), _READ_TIMEOUT_S
        )
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            writer.write(_json_response("400 Bad Request",
                                        {"error": "malformed request line"}))
            return
        # Drain (and ignore) the header block; bodies are not accepted.
        for _ in range(_MAX_HEADER_LINES):
            line = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT_S)
            if line in (b"\r\n", b"\n", b""):
                break
        writer.write(await route_async(daemon, parts[0], parts[1]))
        await writer.drain()
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass
    finally:
        try:
            writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass
