"""Wire traffic for the daemon workloads, generated in the benchmark process.

The generator speaks the daemon's newline-delimited JSON protocol with
its own few lines of framing rather than the program's
``repro.daemon.protocol``, so a change to the program's codec changes
the daemon's cost and not the load offered to it.  Every window is
unique (:class:`common.WireWindows`) and built in this process just
before it is sent, so the daemon's memory holds only what it keeps
itself.

Two traffic shapes:

- ``saturate``: a closed loop.  Each connection keeps exactly ``depth``
  windows outstanding and sends the next one as soon as a reply comes
  back.  Latency runs from the actual send to the reply.
- ``paced``: an open loop.  Each connection sends once per period from a
  seeded phase, each send due at a seeded offset of up to half a period
  into its slot, whatever the replies do.  Latency runs from each
  window's due time to its reply, and the generator's lateness (send
  time minus due time) is recorded.  Without the offsets the two
  connections' arrivals lock to one lattice, and where the batch
  deadline falls on it decides the median latency: across seeds it
  moved by 17% on a 2-vCPU Xeon host.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

import procstat
from common import WireWindows

#: Post-traffic budget for the last replies to arrive.
DRAIN_TIMEOUT_S = 20.0
#: Budget for connecting and for the welcome frame.
CONNECT_TIMEOUT_S = 30.0


class Link:
    """One client connection: sends windows, matches replies by seq."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, windows: WireWindows) -> None:
        self.reader = reader
        self.writer = writer
        self.windows = windows
        self._buffer = b""
        #: seq -> [window id, due, sent, replied, outcome, label, degraded]
        self.records: dict[int, list] = {}
        self.outstanding = 0
        self.duplicates = 0
        self.on_reply = None
        self._seq = 0
        self._task: asyncio.Task | None = None
        self._idle = asyncio.Event()
        self._idle.set()

    @classmethod
    async def open(cls, host: str, port: int, session: str,
                   windows: WireWindows) -> "Link":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), CONNECT_TIMEOUT_S)
        link = cls(reader, writer, windows)
        writer.write(_line({"type": "hello", "session": session, "proto": 1}))
        line = await asyncio.wait_for(reader.readline(), CONNECT_TIMEOUT_S)
        frame = json.loads(line or b"{}")
        if frame.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {frame}")
        link._task = asyncio.create_task(link._read_replies())
        return link

    def _frames(self, data: bytes) -> list[dict]:
        lines = (self._buffer + data).split(b"\n")
        self._buffer = lines.pop()
        return [json.loads(line) for line in lines if line.strip()]

    def send(self, due: float | None = None) -> None:
        seq = self._seq
        self._seq += 1
        k, data = self.windows.frame(seq)
        sent = time.perf_counter()
        self.records[seq] = [k, sent if due is None else due, sent,
                             None, None, None, None]
        self.outstanding += 1
        self._idle.clear()
        self.writer.write(data)

    async def _read_replies(self) -> None:
        while True:
            data = await self.reader.read(65536)
            if not data:
                return
            now = time.perf_counter()
            for frame in self._frames(data):
                if frame.get("type") != "result":
                    continue
                record = self.records.get(frame.get("seq"))
                if record is None or record[3] is not None:
                    self.duplicates += 1
                    continue
                record[3] = now
                record[4] = frame.get("outcome")
                record[5] = frame.get("label")
                record[6] = bool(frame.get("degraded"))
                self.outstanding -= 1
                if self.outstanding == 0:
                    self._idle.set()
                if self.on_reply is not None:
                    self.on_reply(self)

    async def drained(self, timeout: float) -> bool:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self) -> None:
        try:
            self.writer.write(_line({"type": "bye"}))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, 5.0)
            except asyncio.TimeoutError:
                self._task.cancel()
        self.writer.close()


def _line(frame: dict) -> bytes:
    return json.dumps(frame).encode() + b"\n"


async def http_get(host: str, port: int, path: str) -> bytes:
    """Body of one admin-plane GET (status must be 200)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        raw = await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    if head.split(None, 2)[1:2] != [b"200"]:
        raise RuntimeError(f"GET {path}: {head[:80]!r}")
    return body


def parse_counters(text: bytes) -> dict[str, float]:
    """Prometheus exposition lines as ``{series: value}``."""
    out: dict[str, float] = {}
    for line in text.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.partition(" ")
            try:
                out[series] = float(value.split(" ", 1)[0])
            except ValueError:
                continue
    return out


async def warm_up(host: str, port: int, windows: WireWindows,
                  session: str) -> float:
    """Send one window on a fresh connection; returns when it is answered."""
    link = await Link.open(host, port, session, windows)
    link.send()
    if not await link.drained(CONNECT_TIMEOUT_S):
        raise RuntimeError("warm-up window was not answered")
    answered = time.perf_counter()
    record = next(iter(link.records.values()))
    if record[4] not in ("completed", "cached") or record[6]:
        raise RuntimeError(f"warm-up window failed: {record}")
    await link.close()
    return answered


async def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def drive(host: str, port: int, admin_port: int, pid: int,
                windows: WireWindows, mode: str, seconds: float,
                phases: list[float], rng: np.random.Generator,
                depth: int, period_s: float,
                warm_s: float = 1.0) -> dict[str, object]:
    """Run the traffic and measure ``seconds`` of it after ``warm_s``.

    One connection per entry of ``phases``; the phases and ``rng`` (the
    offsets within each slot) only shape paced traffic.
    """
    links = [await Link.open(host, port, f"bench-{i}", windows)
             for i in range(len(phases))]
    begin = time.perf_counter()
    t0 = begin + warm_s
    t_stop = t0 + seconds
    senders: list[asyncio.Task] = []
    if mode == "saturate":
        def refill(link: Link) -> None:
            if time.perf_counter() < t_stop:
                link.send()

        for link in links:
            link.on_reply = refill
            for _ in range(depth):
                link.send()
    else:
        async def pace(link: Link, phase: float) -> None:
            k = 0
            while (due := begin + phase + (k + rng.uniform(0.0, 0.5))
                   * period_s) < t_stop:
                await _sleep_until(due)
                link.send(due)
                k += 1

        senders = [asyncio.create_task(pace(link, phase))
                   for link, phase in zip(links, phases)]

    await _sleep_until(t0)
    metrics0 = parse_counters(await http_get(host, admin_port, "/metrics"))
    cpu = procstat.CpuWindow(pid)
    cpu.start()
    t0 = time.perf_counter()
    await _sleep_until(t_stop)  # the senders stop at t_stop too
    t1 = time.perf_counter()
    cpu.stop()
    metrics1 = parse_counters(await http_get(host, admin_port, "/metrics"))
    for task in senders:
        await task
    drained = [await link.drained(DRAIN_TIMEOUT_S) for link in links]
    peak = procstat.peak_rss_mb(pid)
    health = json.loads(await http_get(host, admin_port, "/healthz"))
    for link in links:
        await link.close()
    return {
        "t0": t0, "t1": t1, "cpu": cpu,
        "records": [r for link in links for r in link.records.values()],
        "duplicates": sum(link.duplicates for link in links),
        "drained": all(drained),
        "metrics0": metrics0, "metrics1": metrics1,
        "health": health, "peak_rss_mb": peak,
    }
