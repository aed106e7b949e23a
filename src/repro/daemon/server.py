"""The asyncio serving daemon: real sockets in front of ``AffectServer``.

``repro daemon`` turns the in-process serving runtime into a network
service without adding a single third-party dependency: an
``asyncio.start_server`` ingest listener speaks the newline-delimited
JSON protocol of :mod:`repro.daemon.protocol`, and a second hand-rolled
HTTP listener (:mod:`repro.daemon.admin`) serves ``/healthz``,
``/metrics`` and ``/bundles/<id>``.

Architecture — one event loop, one worker thread, one clock:

- **The daemon owns the clock.**  The serve stack runs on caller-
  supplied workload time; here workload time is defined as
  ``time.monotonic() - t0`` so wall time and workload time advance in
  lockstep and the idle-TTL / deadline-flush machinery just works.
- **Async/thread bridge.**  ``AffectServer`` is thread-safe but
  blocking (DSP + model flushes), so server calls run on a
  single-worker :class:`~concurrent.futures.ThreadPoolExecutor`.
  Windows do not hop there one by one: the ingest path queues each
  window, and one pump task submits everything queued in a single
  executor call, in arrival order (:meth:`ReproDaemon._pump`).  One
  worker is a feature, not a limit: it serialises server calls, and
  the worker hands each submit's results back to the loop in order
  (``call_soon_threadsafe`` callbacks run FIFO), so per-session results
  are dispatched in submission order — the invariant the seq-matching
  in :meth:`ReproDaemon._dispatch` relies on.
- **One BLAS thread.**  While it serves, the daemon pins numpy's
  OpenBLAS pool to one thread (:mod:`repro.daemon.blas`): at flush
  sizes a second thread buys no speed and doubles the CPU per window.
  An operator's explicit ``OPENBLAS_NUM_THREADS`` wins.
- **Admission gates.**  A connection cap with LRU preemption (the
  evicted peer gets an explicit ``preempted`` frame before close — the
  serve layer's never-silent-drop contract extended to connections)
  and a per-session in-flight cap that sheds excess windows with an
  immediate degraded ``result`` frame rather than queueing them.
- **Reap, don't leak.**  Any connection teardown — clean ``bye``,
  abrupt reset, preemption — evicts the session through
  :meth:`~repro.serve.sessions.SessionManager.evict`; its windows still
  queued are never submitted, and results still in flight for it
  complete against a detached stand-in; both are counted
  ``daemon.replies.unroutable``, never resurrecting state.
- **Monitoring.**  The poll loop drives the same
  :func:`~repro.obs.monitor.make_monitor` stack as ``repro monitor``:
  burn-rate alert rules sampled every tick, with the flight recorder
  dumping an incident bundle (served by the admin plane) when a page
  fires — and, since the profiler landed, a profile snapshot captured
  into that same bundle.
- **Profiling.**  A resident :class:`~repro.obs.prof.StackSampler`
  (100 Hz) runs for the daemon's lifetime; ``/debug/prof/cpu`` serves
  its cumulative collapsed-stack profile (or a fresh window), and
  ``/debug/prof/heap`` lazily starts allocation tracking.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.daemon import protocol
from repro.daemon.blas import blas_threads, set_blas_threads
from repro.errors import ProtocolError
from repro.obs import get_registry, labeled
from repro.obs.monitor import make_monitor
from repro.obs.prof import HeapProfiler, ProfileRecorder, StackSampler
from repro.serve.runtime import AffectServer, ServeResult

#: Wall period of the poll loop (deadline flushes, idle eviction, alert
#: sampling).
POLL_PERIOD_S = 0.02
#: A connection must complete its hello within this budget.
HELLO_TIMEOUT_S = 5.0
#: Largest socket read per call.  Frames are capped at
#: ``protocol.MAX_FRAME_BYTES`` and the resident profiler samples every
#: ``prof.DEFAULT_INTERVAL_S`` (100 Hz, the rate the <2% overhead gate
#: in BENCH_obs.json covers): the daemon uses both modules' defaults.
CHUNK_BYTES = 65536


@dataclass(frozen=True)
class DaemonConfig:
    """Tuning knobs for one :class:`ReproDaemon`."""

    host: str = "127.0.0.1"
    #: Ingest TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`ReproDaemon.port` after :meth:`ReproDaemon.start`).
    port: int = 0
    #: Admin HTTP port; ``0`` binds an ephemeral port.
    admin_port: int = 0
    #: Connection-cap admission gate: at capacity, a new hello preempts
    #: the least-recently-active connection (or is refused when
    #: ``preempt`` is off).
    max_connections: int = 64
    #: Per-session in-flight gate: windows submitted but unanswered
    #: beyond this are shed at the daemon with a degraded reply.
    max_inflight: int = 8
    preempt: bool = True
    #: Attach the burn-rate alerting + flight-recorder stack.
    monitor: bool = True
    bundle_dir: str = "incidents"
    #: Attach the resident continuous profiler (stack sampler + the
    #: admin plane's ``/debug/prof/*`` endpoints).
    profile: bool = True

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


class _Connection:
    """One admitted ingest connection (post-hello)."""

    __slots__ = ("writer", "session_id", "opened_at", "last_active",
                 "pending", "windows", "shed", "closing")

    def __init__(self, writer: asyncio.StreamWriter, session_id: str,
                 opened_at: float) -> None:
        self.writer = writer
        self.session_id = session_id
        self.opened_at = opened_at
        self.last_active = opened_at
        #: Client seqs of windows queued or inside the batcher, arrival
        #: order.  Per-session completions come back in that order
        #: (arrival-order hops, single executor worker, in-order batch
        #: flushes), so a FIFO pop maps each completed result back to
        #: the client's own seq.
        self.pending: deque[int] = deque()
        self.windows = 0
        self.shed = 0
        #: The teardown reason once the connection is closing.
        self.closing: str | None = None


class ReproDaemon:
    """Serve one :class:`~repro.serve.runtime.AffectServer` over TCP."""

    def __init__(self, server: AffectServer,
                 config: DaemonConfig | None = None) -> None:
        self.server = server
        self.config = config or DaemonConfig()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._routes: dict[str, _Connection] = {}
        self._ingest: asyncio.base_events.Server | None = None
        self._admin: asyncio.base_events.Server | None = None
        self._poll_task: asyncio.Task | None = None
        #: Windows waiting for the next hop: ``(conn, seq, signal, now)``.
        self._queue: list[tuple[_Connection, int, object, float]] = []
        self._wake: asyncio.Event | None = None
        self._pump_task: asyncio.Task | None = None
        #: Connections with windows in the hop the worker is running.
        self._hop_conns: set[_Connection] = set()
        self._stopping = False
        #: BLAS pool size to restore on stop (``None``: nothing pinned).
        self._blas_restore: int | None = None
        self._t0 = time.monotonic()
        self.port: int | None = None
        self.admin_port: int | None = None
        self.preemptions = 0
        self.daemon_shed = 0
        self.unroutable = 0
        self.protocol_errors = 0
        if self.config.monitor:
            self.manager, self.recorder = make_monitor(
                bundle_dir=self.config.bundle_dir
            )
        else:
            self.manager, self.recorder = None, None
        #: Resident stack sampler; the heap profiler starts lazily on
        #: the first ``/debug/prof/heap`` hit (tracemalloc is too heavy
        #: to keep always-on).
        self.profiler: StackSampler | None = (
            StackSampler() if self.config.profile else None
        )
        self._heap: HeapProfiler | None = None
        self.profile_recorder: ProfileRecorder | None = None
        if self.manager is not None and self.profiler is not None:
            # Appended after the flight recorder (make_monitor put it in
            # sinks first), so by the time this sink sees a page the
            # incident bundle directory exists and the profile snapshot
            # lands inside it.
            self.profile_recorder = ProfileRecorder(
                self.profiler, recorder=self.recorder,
                profile_dir=self.config.bundle_dir,
            )
            self.manager.sinks.append(self.profile_recorder)

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Workload time: seconds since the daemon started."""
        return time.monotonic() - self._t0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners, pin BLAS, start the pump and poll loop."""
        self._t0 = time.monotonic()
        cfg = self.config
        self._ingest = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )
        self.port = self._ingest.sockets[0].getsockname()[1]
        from repro.daemon.admin import handle_admin

        self._admin = await asyncio.start_server(
            lambda r, w: handle_admin(self, r, w), cfg.host, cfg.admin_port
        )
        self.admin_port = self._admin.sockets[0].getsockname()[1]
        if self.profiler is not None:
            self.profiler.start()
        if "OPENBLAS_NUM_THREADS" not in os.environ:
            # After training, so set-up keeps the full pool; an
            # operator's explicit thread count is left alone.
            self._blas_restore = set_blas_threads(1)
        self._stopping = False
        self._wake = asyncio.Event()
        self._pump_task = asyncio.create_task(self._pump())
        self._poll_task = asyncio.create_task(self._poll_loop())

    async def stop(self) -> None:
        """Drain pending windows, answer them, and tear everything down."""
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        # Every accepted window is answered, even across shutdown: new
        # windows are shed from here on, the pump submits what is still
        # queued and exits, and the drain flushes the batcher.
        self._stopping = True
        if self._pump_task is not None:
            self._wake.set()
            await self._pump_task
            self._pump_task = None
        self._dispatch(await self._run(self.server.drain, self.now()))
        for conn in list(self._routes.values()):
            self._close_conn(conn, reason="shutdown")
        for listener in (self._ingest, self._admin):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        self._ingest = self._admin = None
        self._executor.shutdown(wait=True)
        if self._blas_restore is not None:
            set_blas_threads(self._blas_restore)
            self._blas_restore = None
        if self.profiler is not None:
            self.profiler.stop()
        if self._heap is not None:
            self._heap.stop()
            self._heap = None

    def heap_profiler(self) -> HeapProfiler:
        """The allocation profiler, started on first use.

        Lazy on purpose: ``tracemalloc`` instruments every allocation
        and costs far more than stack sampling, so the daemon only pays
        for it once an operator actually asks ``/debug/prof/heap``.
        Once live it is attached to the resident sampler (periodic
        gauge refresh) and to the profile-capture alert sink.
        """
        if self._heap is None:
            self._heap = HeapProfiler()
            self._heap.start()
            if self.profiler is not None:
                self.profiler.heap = self._heap
            if self.profile_recorder is not None:
                self.profile_recorder.heap = self._heap
        return self._heap

    def _run(self, fn, *args):
        """Run one blocking server call on the single worker thread."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, lambda: fn(*args))

    # -- introspection -----------------------------------------------------

    @property
    def connections(self) -> int:
        return len(self._routes)

    def route_ids(self) -> list[str]:
        """Session ids with a live connection."""
        return list(self._routes)

    def health(self) -> dict[str, object]:
        """The ``/healthz`` payload."""
        stats = self.server.stats()
        return {
            "ok": bool(stats["healthy"]),
            "uptime_s": self.now(),
            "connections": len(self._routes),
            "sessions_active": len(self.server.sessions),
            "preemptions": self.preemptions,
            "daemon_shed": self.daemon_shed,
            "unroutable": self.unroutable,
            "protocol_errors": self.protocol_errors,
            "max_connections": self.config.max_connections,
            "max_inflight": self.config.max_inflight,
            "blas_threads": blas_threads(),
            "server": stats,
        }

    # -- ingest ------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        obs = get_registry()
        decoder = protocol.FrameDecoder()
        queued: deque[dict] = deque()

        async def next_frame() -> dict | None:
            while not queued:
                data = await reader.read(CHUNK_BYTES)
                if not data:
                    return None
                queued.extend(decoder.feed(data))
            return queued.popleft()

        conn: _Connection | None = None
        reason = "disconnect"
        try:
            hello = await asyncio.wait_for(
                next_frame(), HELLO_TIMEOUT_S
            )
            if hello is None:
                return
            session_id = protocol.parse_hello(hello)
            conn = self._admit(session_id, writer)
            if conn is None:
                return
            self._send(conn, {
                "type": "welcome", "session": session_id,
                "proto": protocol.PROTOCOL_VERSION,
                "max_inflight": self.config.max_inflight,
            })
            obs.set_gauge("daemon.connections", len(self._routes))
            while True:
                frame = await next_frame()
                if frame is None:
                    return
                if self._handle_frame(conn, frame):
                    reason = "bye"
                    return
        except asyncio.TimeoutError:
            self._send_to(writer, {"type": "error",
                                   "error": "hello timeout"})
        except ProtocolError as exc:
            self.protocol_errors += 1
            obs.inc("daemon.protocol_errors")
            self._send_to(writer, {"type": "error", "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if conn is not None:
                self._close_conn(conn, reason=reason)
                obs.set_gauge("daemon.connections", len(self._routes))
                obs.set_gauge("daemon.sessions.active",
                              len(self.server.sessions))
            else:
                self._close_writer(writer)

    def _handle_frame(self, conn: _Connection, frame: dict) -> bool:
        """One post-hello frame; ``True`` means the client said bye."""
        kind = frame.get("type")
        if kind == "window":
            self._handle_window(conn, frame)
            return False
        if kind == "ping":
            self._send(conn, {"type": "pong", "t": frame.get("t")})
            return False
        if kind == "bye":
            self._send(conn, {"type": "goodbye"})
            return True
        raise ProtocolError(f"unexpected frame type {kind!r}")

    def _handle_window(self, conn: _Connection, frame: dict) -> None:
        """Gate one window and queue it for the pump's next hop."""
        seq, signal = protocol.parse_window(frame)
        now = self.now()
        conn.last_active = now
        conn.windows += 1
        if self._stopping:
            self._shed(conn, seq, gate="shutdown")
        elif len(conn.pending) >= self.config.max_inflight:
            self._shed(conn, seq, gate="inflight")
        else:
            conn.pending.append(seq)
            self._queue.append((conn, seq, signal, now))
            self._wake.set()

    def _shed(self, conn: _Connection, seq: int, gate: str) -> None:
        """Answer one window *now* with the session's degraded fallback.

        The in-flight gate, shutdown and a failed submit shed instead of
        queueing — shed, never silently drop.
        """
        conn.shed += 1
        self.daemon_shed += 1
        get_registry().inc(labeled("daemon.shed", gate=gate))
        session = self.server.sessions.peek(conn.session_id)
        label = (session.fallback_label if session is not None
                 else self.server.neutral_label)
        self._send(conn, {
            "type": "result", "seq": seq, "outcome": "shed",
            "label": label, "emotion": None, "mode": None,
            "shed": True, "degraded": True, "cached": False,
            "tier": None, "latency_s": 0.0,
        })

    # -- the bridge: one executor hop per batch of ready windows -----------

    async def _pump(self) -> None:
        """Submit queued windows to the worker, one executor hop per batch.

        Each hop takes everything queued so far, in arrival order.  A
        window whose connection closed while it was queued is dropped
        (unroutable) rather than submitted: submitting it would
        re-create the session the teardown just evicted.  A connection
        that closes *during* a hop is skipped by the worker from then
        on, and its session is evicted only when the hop is back, so no
        submit in that hop can resurrect it.  Exits once the daemon is
        stopping and the queue is empty.
        """
        loop = asyncio.get_running_loop()
        obs = get_registry()
        while True:
            if not self._queue:
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            hop, self._queue = self._queue, []
            # Only connections live now may defer their eviction to the
            # end of this hop: a closed one's session id may already
            # belong to a successor whose windows ride the same hop.
            live = [item for item in hop if not item[0].closing]
            self._unroutable(len(hop) - len(live))
            if not live:
                continue
            obs.inc("daemon.hops")
            self._hop_conns = {conn for conn, *_ in live}
            try:
                await loop.run_in_executor(
                    self._executor, self._submit_hop, live, loop
                )
            finally:
                hop_conns, self._hop_conns = self._hop_conns, set()
            for conn in hop_conns:
                if conn.closing:
                    self._evict(conn)

    def _submit_hop(self, hop: list, loop: asyncio.AbstractEventLoop) -> None:
        """One hop on the worker thread: submit each window in order.

        Whatever a submit answers goes back to the loop as soon as the
        submit returns (``call_soon_threadsafe`` callbacks run FIFO, so
        submission order holds), and no reply waits behind a later flush
        in the same hop.  A window whose connection closed meanwhile is
        not submitted; a submit that raises is answered with a shed.
        """
        for conn, seq, signal, now in hop:
            if conn.closing:
                loop.call_soon_threadsafe(self._unroutable)
                continue
            try:
                results = self.server.submit(conn.session_id, signal, now)
            except Exception:
                # The pump serves every connection: one bad submit must
                # not stop it.
                logging.getLogger(__name__).exception(
                    "submit failed for session %r", conn.session_id)
                loop.call_soon_threadsafe(self._submit_failed, conn, seq)
                continue
            if results:
                loop.call_soon_threadsafe(self._dispatch, results, conn, seq)

    def _submit_failed(self, conn: _Connection, seq: int) -> None:
        get_registry().inc("daemon.submit_errors")
        try:
            conn.pending.remove(seq)
        except ValueError:
            pass
        self._shed(conn, seq, gate="error")

    # -- admission / preemption --------------------------------------------

    def _admit(self, session_id: str,
               writer: asyncio.StreamWriter) -> _Connection | None:
        """Admission gate; returns the registered connection or ``None``."""
        obs = get_registry()
        existing = self._routes.get(session_id)
        if existing is not None:
            # Same-session takeover: the newest connection wins; the old
            # one is preempted and its session state dropped, so the new
            # connection starts from a clean (unpoisoned) session.
            self._preempt(existing, reason="takeover")
        while len(self._routes) >= self.config.max_connections:
            if not self.config.preempt:
                obs.inc(labeled("daemon.refused", reason="capacity"))
                self._send_to(writer, {
                    "type": "error",
                    "error": f"at capacity "
                             f"({self.config.max_connections} connections)",
                })
                return None
            victim = min(self._routes.values(),
                         key=lambda c: c.last_active)
            self._preempt(victim, reason="capacity")
        conn = _Connection(writer, session_id, self.now())
        self._routes[session_id] = conn
        return conn

    def _preempt(self, conn: _Connection, reason: str) -> None:
        """Explicitly close one connection to make room (never silent)."""
        self.preemptions += 1
        get_registry().inc(labeled("daemon.preemptions", reason=reason))
        self._send(conn, {"type": "preempted", "reason": reason,
                          "session": conn.session_id})
        self._close_conn(
            conn, reason="takeover" if reason == "takeover" else "preempted"
        )

    def _close_conn(self, conn: _Connection, reason: str) -> None:
        """Idempotent teardown: unroute, reap the session, close the pipe."""
        if conn.closing:
            return
        conn.closing = reason
        if self._routes.get(conn.session_id) is conn:
            del self._routes[conn.session_id]
        # Reap, don't leak: the session dies with its connection.  Any
        # in-flight window completes against a detached stand-in (see
        # AffectServer._finish) and is counted unroutable here.  While
        # the worker may still be submitting this connection's windows,
        # the pump evicts once the hop is back instead.
        if conn not in self._hop_conns:
            self._evict(conn)
        self._close_writer(conn.writer)

    def _evict(self, conn: _Connection) -> None:
        self.server.sessions.evict(conn.session_id, reason=conn.closing)

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- replies -----------------------------------------------------------

    def _dispatch(self, results: list[ServeResult],
                  immediate_conn: _Connection | None = None,
                  immediate_seq: int | None = None) -> None:
        """Route served results back to their connections, re-seq'd.

        Runs synchronously (no awaits), once per server call and in
        server-call order, so the per-session FIFO pops happen in
        submission order.  A result whose outcome is not
        ``"completed"`` was answered inline by the submit call itself
        and therefore belongs to ``immediate_conn``/``immediate_seq``;
        completed results are flushes of pending windows and map to the
        connection's FIFO head.
        """
        for result in results:
            immediate = (result.outcome != "completed"
                         and immediate_conn is not None)
            conn = (immediate_conn if immediate
                    else self._routes.get(result.session_id))
            if conn is None or conn.closing or not (immediate or conn.pending):
                self._unroutable()
                continue
            if immediate:
                client_seq = immediate_seq
                try:
                    conn.pending.remove(immediate_seq)
                except ValueError:
                    pass
            else:
                client_seq = conn.pending.popleft()
            frame = protocol.result_frame(result)
            frame["seq"] = client_seq
            self._send(conn, frame)

    def _unroutable(self, n: int = 1) -> None:
        """Count replies (or windows) no live connection can receive."""
        if n:
            self.unroutable += n
            get_registry().inc("daemon.replies.unroutable", n)

    def _send(self, conn: _Connection, frame: dict) -> None:
        if conn.closing:
            return
        self._send_to(conn.writer, frame)

    def _send_to(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        try:
            writer.write(protocol.encode_frame(frame))
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- poll loop ---------------------------------------------------------

    async def _poll_loop(self) -> None:
        """Deadline flushes, idle eviction, gauges, alert sampling."""
        obs = get_registry()
        while True:
            await asyncio.sleep(POLL_PERIOD_S)
            now = self.now()
            try:
                results = await self._run(self.server.poll, now)
            except Exception:
                obs.inc("daemon.poll_errors")
                continue
            self._dispatch(results)
            obs.set_gauge("daemon.connections", len(self._routes))
            obs.set_gauge("daemon.sessions.active",
                          len(self.server.sessions))
            obs.set_gauge("daemon.uptime_s", now)
            if self.manager is not None:
                # Both are internally rate-limited, so per-tick calls
                # cost one comparison in the common case.
                self.manager.observe(obs, now)
                self.recorder.record(obs, now)
