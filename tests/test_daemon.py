"""The network daemon: handshake, gates, ingest queue, preemption, reaping, admin plane."""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading

import numpy as np
import pytest

from repro.affect.pipeline import AffectClassifierPipeline
from repro.daemon import protocol
from repro.daemon.bench import _http_get, run_daemon_bench
from repro.daemon.blas import blas_threads, set_blas_threads
from repro.daemon.server import DaemonConfig, ReproDaemon
from repro.datasets import emovo_like
from repro.datasets.speech import synthesize_utterance
from repro.obs import get_registry, labeled
from repro.serve import AffectServer, ServeConfig


@pytest.fixture(scope="module")
def pipeline():
    corpus = emovo_like(n_per_class=4, seed=0)
    p = AffectClassifierPipeline("mlp", seed=0)
    p.train(corpus, epochs=3)
    return p


@pytest.fixture(scope="module")
def wave(pipeline):
    return synthesize_utterance(pipeline.classifier.label_names[0],
                                actor=0, sentence=0, take=0)


def make_daemon(pipeline, tmp_path, *, serve: dict | None = None,
                **daemon_kwargs) -> ReproDaemon:
    server = AffectServer(pipeline, ServeConfig(**(serve or {})))
    daemon_kwargs.setdefault("port", 0)
    daemon_kwargs.setdefault("admin_port", 0)
    daemon_kwargs.setdefault("bundle_dir", str(tmp_path / "incidents"))
    return ReproDaemon(server, DaemonConfig(**daemon_kwargs))


async def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def block_worker(daemon: ReproDaemon) -> threading.Event:
    """Park the daemon's single worker until the returned event is set."""
    gate = threading.Event()
    daemon._executor.submit(gate.wait, 10.0)
    return gate


def variants(wave: np.ndarray, n: int) -> list[np.ndarray]:
    """Distinct windows (no cache hits, no in-batch dedup)."""
    return [wave * (1.0 + 0.01 * k) for k in range(n)]


class Client:
    """Minimal test client over a real loopback socket."""

    def __init__(self) -> None:
        self.decoder = protocol.FrameDecoder()
        self.frames: list[dict] = []

    async def connect(self, daemon: ReproDaemon, session_id: str) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            daemon.config.host, daemon.port
        )
        self.send(protocol.hello_frame(session_id))
        welcome = await self.expect("welcome")
        assert welcome["session"] == session_id

    def send(self, frame: dict) -> None:
        self.writer.write(protocol.encode_frame(frame))

    async def recv(self, timeout: float = 5.0) -> dict | None:
        while not self.frames:
            data = await asyncio.wait_for(self.reader.read(65536), timeout)
            if not data:
                return None
            self.frames.extend(self.decoder.feed(data))
        return self.frames.pop(0)

    async def expect(self, kind: str, timeout: float = 5.0) -> dict:
        frame = await self.recv(timeout)
        assert frame is not None, f"connection closed awaiting {kind!r}"
        assert frame["type"] == kind, frame
        return frame

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, RuntimeError, OSError):
            pass


class TestIngest:
    def test_window_round_trip(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-1")
                client.send(protocol.window_frame(0, wave))
                result = await client.expect("result")
                assert result["seq"] == 0
                assert result["outcome"] in (
                    "completed", "cached", "absorbed", "shed"
                )
                assert result["label"] in pipeline.classifier.label_names
                client.send({"type": "ping", "t": 1.0})
                pong = await client.expect("pong")
                assert pong["t"] == 1.0
                client.send({"type": "bye"})
                await client.expect("goodbye")
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_seq_mapping_across_pipelined_windows(self, pipeline, wave,
                                                  tmp_path):
        # Client-chosen seqs (not 0..n) must come back on the replies
        # even when windows pend across deadline flushes.
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 serve={"max_batch": 64, "max_wait_s": 0.05})
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-seq")
                seqs = [7, 3, 99]
                for seq in seqs:
                    client.send(protocol.window_frame(seq, wave))
                got = []
                for _ in seqs:
                    got.append((await client.expect("result"))["seq"])
                assert got == seqs
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_inflight_gate_sheds_explicitly(self, pipeline, wave, tmp_path):
        async def run():
            # A huge deadline keeps the first window pending, so the
            # second trips the in-flight gate and must be answered NOW.
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_inflight=1,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-gate")
                client.send(protocol.window_frame(0, wave))
                client.send(protocol.window_frame(1, wave))
                shed = await client.expect("result")
                assert shed["seq"] == 1
                assert shed["outcome"] == "shed"
                assert shed["shed"] is True
                assert daemon.daemon_shed == 1
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_malformed_frame_gets_error_and_close(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-bad")
                client.writer.write(b"this is not json\n")
                error = await client.expect("error")
                assert "frame" in error["error"] or "error" in error
                assert await client.recv() is None  # closed after error
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())


class TestAdmissionAndReaping:
    def test_capacity_preemption_is_explicit_lru(self, pipeline, wave,
                                                 tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 max_connections=1)
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-old")
                first.send(protocol.window_frame(0, wave))
                await first.expect("result")
                assert "u-old" in daemon.server.sessions

                second = Client()
                await second.connect(daemon, "u-new")
                bounced = await first.expect("preempted")
                assert bounced["reason"] == "capacity"
                # The preempted peer's session is reaped with it.
                assert "u-old" not in daemon.server.sessions
                assert daemon.route_ids() == ["u-new"]
                preempted = get_registry().counter(
                    labeled("serve.sessions.preempted", reason="preempted")
                )
                assert preempted.value >= 1
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_same_session_takeover(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-dup")
                second = Client()
                await second.connect(daemon, "u-dup")
                bounced = await first.expect("preempted")
                assert bounced["reason"] == "takeover"
                assert daemon.route_ids() == ["u-dup"]
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_refusal_when_preemption_disabled(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 max_connections=1, preempt=False)
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-a")
                second = Client()
                second.reader, second.writer = await asyncio.open_connection(
                    daemon.config.host, daemon.port
                )
                second.send(protocol.hello_frame("u-b"))
                error = await second.expect("error")
                assert "capacity" in error["error"]
                assert daemon.route_ids() == ["u-a"]
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_abrupt_disconnect_reaps_session(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-gone")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                assert "u-gone" in daemon.server.sessions
                client.writer.transport.abort()  # no FIN-drain, no bye
                for _ in range(100):
                    if "u-gone" not in daemon.server.sessions:
                        break
                    await asyncio.sleep(0.02)
                assert "u-gone" not in daemon.server.sessions
                assert daemon.route_ids() == []
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_inflight_window_of_preempted_session_is_unroutable(
            self, pipeline, wave, tmp_path):
        # A window pending in the batcher when its session is preempted
        # completes against a detached stand-in; the daemon counts the
        # reply unroutable instead of resurrecting the session.
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_connections=1,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            try:
                first = Client()
                await first.connect(daemon, "u-flight")
                first.send(protocol.window_frame(0, wave))
                await asyncio.sleep(0.1)  # let the window reach the batcher
                assert daemon.server.pending == 1

                second = Client()
                await second.connect(daemon, "u-evictor")
                await first.expect("preempted")
                drained = await daemon._run(
                    daemon.server.drain, daemon.now()
                )
                daemon._dispatch(drained)
                assert "u-flight" not in daemon.server.sessions
                assert daemon.unroutable >= 1
                assert daemon.server.dropped == 0
                first.close()
                second.close()
            finally:
                await daemon.stop()

        asyncio.run(run())


class TestIngestQueue:
    """The queue-and-pump bridge: one executor hop per batch of windows."""

    @pytest.mark.parametrize("ending",
                             ["bye", "reset", "preempted", "takeover"])
    def test_queued_window_of_ended_connection_is_never_submitted(
            self, pipeline, wave, tmp_path, ending):
        # One window is in a hop parked behind the blocked worker, the
        # next still in the queue, when the connection ends.  Neither
        # may be submitted: that would re-create the evicted session.
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_connections=1,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            gate = None
            try:
                client = Client()
                await client.connect(daemon, "u-q")
                w0, w1, w2 = variants(wave, 3)
                client.send(protocol.window_frame(0, w0))
                await wait_until(lambda: daemon.server.submitted == 1)
                assert "u-q" in daemon.server.sessions
                gate = block_worker(daemon)
                client.send(protocol.window_frame(1, w1))
                await wait_until(lambda: bool(daemon._hop_conns))
                client.send(protocol.window_frame(2, w2))
                await wait_until(lambda: len(daemon._queue) == 1)
                if ending == "bye":
                    client.send({"type": "bye"})
                    await client.expect("goodbye")
                elif ending == "reset":
                    client.writer.transport.abort()
                    await wait_until(lambda: not daemon.route_ids())
                else:
                    other = Client()
                    await other.connect(
                        daemon, "u-q" if ending == "takeover" else "u-x")
                    bounced = await client.expect("preempted")
                    assert bounced["reason"] == (
                        "takeover" if ending == "takeover" else "capacity")
                    other.close()
                gate.set()
                await wait_until(lambda: daemon.unroutable == 2)
                await daemon._run(lambda: None)  # the hop has returned
                assert daemon.server.submitted == 1
                assert "u-q" not in daemon.server.sessions
                assert daemon.server.sessions.created == 1
                client.close()
            finally:
                if gate is not None:
                    gate.set()
                await daemon.stop()
            # The first window is still answered exactly once (drained
            # against a detached stand-in, reply unroutable).
            assert daemon.server.dropped == 0
            assert daemon.unroutable == 3

        asyncio.run(run())

    def test_stop_answers_every_queued_window(self, pipeline, wave,
                                              tmp_path):
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False,
                serve={"max_batch": 64, "max_wait_s": 60.0},
            )
            await daemon.start()
            client = Client()
            await client.connect(daemon, "u-stop")
            gate = block_worker(daemon)
            seqs = [4, 8, 15, 16]
            frames = [protocol.window_frame(seq, window) for seq, window
                      in zip(seqs, variants(wave, len(seqs)))]
            client.send(frames[0])
            await wait_until(lambda: bool(daemon._hop_conns))
            for frame in frames[1:]:
                client.send(frame)
            await wait_until(lambda: len(daemon._queue) == len(seqs) - 1)
            stopping = asyncio.create_task(daemon.stop())
            await asyncio.sleep(0.05)
            gate.set()
            await stopping
            replies = [await client.expect("result") for _ in seqs]
            assert [r["seq"] for r in replies] == seqs
            assert all(r["outcome"] == "completed" for r in replies)
            assert daemon.server.submitted == len(seqs)
            assert daemon.server.pending == 0
            assert daemon.server.dropped == 0
            client.close()

        asyncio.run(run())

    def test_reply_order_when_one_hop_spans_flushes(self, pipeline, wave,
                                                    tmp_path):
        # max_batch=2: the second hop's six windows trigger three
        # flush-on-full.  Replies keep the client's order, and the first
        # flush's replies go out while the worker is still in the hop.
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False,
                serve={"max_batch": 2, "max_wait_s": 60.0},
            )
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-order")
                sent: list[int] = []
                first_flush_out = threading.Event()
                send = daemon._send

                def spy(conn, frame):
                    send(conn, frame)
                    if frame.get("type") == "result":
                        sent.append(frame["seq"])
                        if len(sent) == 2:
                            first_flush_out.set()

                daemon._send = spy
                submit = daemon.server.submit
                waited: list[bool] = []

                def submit_after_first_flush(session_id, signal, now):
                    if daemon.server.submitted == 3:
                        waited.append(first_flush_out.wait(5.0))
                    return submit(session_id, signal, now)

                daemon.server.submit = submit_after_first_flush
                hops = get_registry().counter("daemon.hops")
                hops_before = hops.value
                gate = block_worker(daemon)
                seqs = [5, 3, 9, 1, 7, 2, 11]
                frames = [protocol.window_frame(seq, window) for seq, window
                          in zip(seqs, variants(wave, len(seqs)))]
                client.send(frames[0])
                await wait_until(lambda: bool(daemon._hop_conns))
                for frame in frames[1:]:
                    client.send(frame)
                await wait_until(lambda: len(daemon._queue) == len(seqs) - 1)
                gate.set()
                replies = [await client.expect("result") for _ in seqs[:6]]
                assert [r["seq"] for r in replies] == seqs[:6]
                assert sent == seqs[:6]
                assert waited == [True]
                assert hops.value - hops_before == 2
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())


    def test_failed_submit_is_shed_and_pump_keeps_serving(
            self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 serve={"max_batch": 1})
            await daemon.start()
            try:
                submit = daemon.server.submit
                calls = []

                def flaky(session_id, signal, now):
                    calls.append(session_id)
                    if len(calls) == 1:
                        raise RuntimeError("injected submit failure")
                    return submit(session_id, signal, now)

                daemon.server.submit = flaky
                client = Client()
                await client.connect(daemon, "u-flaky")
                client.send(protocol.window_frame(0, wave))
                failed = await client.expect("result")
                assert failed["seq"] == 0 and failed["outcome"] == "shed"
                client.send(protocol.window_frame(1, wave))
                served = await client.expect("result")
                assert served["seq"] == 1
                assert served["outcome"] == "completed"
                errors = get_registry().counter(
                    labeled("daemon.shed", gate="error"))
                assert errors.value >= 1
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_concurrent_endings_never_resurrect(self, pipeline, wave,
                                                tmp_path):
        # Clients stream windows and end mid-stream (bye, reset, or a
        # takeover by the next client on the same session id) while
        # hops and flushes run, with the worker and the loop switching
        # every few microseconds.  No session may outlive its
        # connection, nothing may be dropped, no seq answered twice.
        async def run():
            daemon = make_daemon(
                pipeline, tmp_path, monitor=False, max_inflight=64,
                serve={"max_batch": 4, "max_wait_s": 0.02},
            )
            await daemon.start()
            windows = variants(wave, 6)
            rng = random.Random(0)
            duplicates = []

            async def one(i: int) -> None:
                client = Client()
                await client.connect(daemon, f"u-{i % 4}")
                n, pause, bye = (rng.randint(1, 10), rng.random() * 0.03,
                                 rng.random() < 0.5)
                try:
                    for seq in range(n):
                        client.send(protocol.window_frame(
                            seq, windows[(i + seq) % len(windows)]))
                    await asyncio.sleep(pause)
                    if bye:
                        client.send({"type": "bye"})
                    else:
                        client.writer.transport.abort()
                except ConnectionError:
                    pass  # a takeover closed this connection first
                seqs = []
                try:
                    while (frame := await client.recv(10.0)) is not None:
                        if frame["type"] == "result":
                            seqs.append(frame["seq"])
                except ConnectionError:
                    pass
                duplicates.extend(seq for seq in set(seqs)
                                  if seqs.count(seq) > 1)
                client.close()

            try:
                await asyncio.wait_for(
                    asyncio.gather(*(one(i) for i in range(24))), 60.0)
                await wait_until(lambda: not (daemon.route_ids()
                                              or daemon._queue
                                              or daemon._hop_conns))
                await daemon._run(lambda: None)
                assert len(daemon.server.sessions) == 0
            finally:
                await daemon.stop()
            assert duplicates == []
            assert daemon.server.dropped == 0
            assert len(daemon.server.sessions) == 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)


class TestBlasPin:
    @pytest.mark.parametrize("explicit, serving", [(None, 1), ("3", 3)])
    def test_start_pins_one_thread_and_stop_restores(
            self, pipeline, tmp_path, monkeypatch, explicit, serving):
        # Without OPENBLAS_NUM_THREADS the pool is pinned to one thread
        # while serving; an explicit setting is left alone.
        if blas_threads() is None:
            pytest.skip("no controllable OpenBLAS loaded")
        if explicit is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", explicit)
        original = set_blas_threads(3)

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                assert blas_threads() == serving
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/healthz"
                )
                assert status == 200
                assert json.loads(body)["blas_threads"] == serving
            finally:
                await daemon.stop()
            assert blas_threads() == 3

        try:
            asyncio.run(run())
        finally:
            set_blas_threads(original)


class TestAdminPlane:
    def test_healthz_metrics_bundles(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path)
            await daemon.start()
            try:
                client = Client()
                await client.connect(daemon, "u-admin")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/healthz"
                )
                assert status == 200
                health = json.loads(body)
                assert health["ok"] is True
                assert health["connections"] == 1
                assert health["server"]["submitted"] >= 1

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/metrics"
                )
                assert status == 200
                text = body.decode("utf-8")
                assert "repro_serve_requests" in text
                assert "repro_daemon_connections" in text

                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/bundles"
                )
                assert status == 200
                assert json.loads(body) == {"bundles": []}

                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/bundles/../etc/passwd"
                )
                assert status == 404
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port, "/nope"
                )
                assert status == 404
                client.close()
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_bundle_endpoint_serves_recorded_incident(self, pipeline,
                                                      tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path)
            await daemon.start()
            try:
                # Force an incident bundle through the recorder rather
                # than simulating a real page: the admin plane serves
                # whatever the recorder wrote.
                daemon.recorder.record(get_registry(), now=1.0)
                bundle_path = daemon.recorder.dump(
                    reason="test-incident", at=1.0
                )
                bundle_id = bundle_path.replace("\\", "/").rsplit("/", 1)[-1]
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/bundles"
                )
                assert status == 200
                assert bundle_id in json.loads(body)["bundles"]
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    f"/bundles/{bundle_id}"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["id"] == bundle_id
                assert payload["incident"]["reason"] == "test-incident"
                assert isinstance(payload["snapshots"], list)
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_post_is_rejected(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    daemon.config.host, daemon.admin_port
                )
                writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
                raw = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                assert b"405" in raw.split(b"\r\n", 1)[0]
            finally:
                await daemon.stop()

        asyncio.run(run())


class TestDaemonBenchSmoke:
    def test_small_bench_passes_gates(self, pipeline, tmp_path):
        report = run_daemon_bench(
            sessions=6, seconds=1.0, seed=0, chaos_sessions=2,
            period_s=0.2, pipeline=pipeline,
            bundle_dir=str(tmp_path / "incidents"),
        )
        gates = report["gates"]
        assert gates["ok"], gates
        traffic = report["traffic"]
        assert traffic["silent_drops"] == 0
        assert traffic["peak_concurrent"] >= 6
        assert report["chaos"]["aborted"] == 2
        assert report["chaos"]["leaked_sessions"] == []
        assert report["preemption"]["preempted_frames"] == 2


class TestProfPlane:
    def test_cumulative_cpu_profile_parses(self, pipeline, wave, tmp_path):
        from repro.obs.prof import parse_collapsed

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                assert daemon.profiler is not None
                assert daemon.profiler.running
                client = Client()
                await client.connect(daemon, "u-prof")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                await asyncio.sleep(0.1)  # let the resident sampler tick
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/cpu"
                )
                assert status == 200
                stacks = parse_collapsed(body.decode("utf-8"))
                assert stacks, "resident sampler recorded nothing"
                assert sum(stacks.values()) >= 1
                client.close()
            finally:
                await daemon.stop()
            assert not daemon.profiler.running  # stop() joined the sampler

        asyncio.run(run())

    def test_windowed_profile_does_not_block_metrics(self, pipeline,
                                                     tmp_path):
        from repro.obs.prof import parse_collapsed

        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                window = asyncio.create_task(_http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?seconds=1.5", timeout=10.0,
                ))
                await asyncio.sleep(0.05)
                # The plane keeps serving while the window collects.
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/metrics"
                )
                assert status == 200
                assert b"repro_" in body
                assert not window.done(), "window returned implausibly fast"
                status, body = await window
                assert status == 200
                parse_collapsed(body.decode("utf-8"))  # may be empty, parses
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_seconds_clamp(self):
        from repro.daemon.admin import (
            PROF_MAX_SECONDS,
            _parse_prof_seconds,
            clamp_prof_seconds,
        )

        assert clamp_prof_seconds(-5.0) == 0.0
        assert clamp_prof_seconds(0.0) == 0.0
        assert clamp_prof_seconds(2.5) == 2.5
        assert clamp_prof_seconds(999.0) == PROF_MAX_SECONDS
        assert clamp_prof_seconds(float("nan")) == 0.0
        assert _parse_prof_seconds("/debug/prof/cpu") == 0.0
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=2") == 2.0
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=1e9") \
            == PROF_MAX_SECONDS
        assert _parse_prof_seconds("/debug/prof/cpu?seconds=abc") is None

    def test_malformed_seconds_is_400(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port,
                    "/debug/prof/cpu?seconds=abc"
                )
                assert status == 400
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_unknown_prof_kind_is_404(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                status, _ = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/wat"
                )
                assert status == 404
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_profiling_disabled_is_503(self, pipeline, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False,
                                 profile=False)
            await daemon.start()
            try:
                assert daemon.profiler is None
                for path in ("/debug/prof/cpu", "/debug/prof/heap"):
                    status, _ = await _http_get(
                        daemon.config.host, daemon.admin_port, path
                    )
                    assert status == 503, path
            finally:
                await daemon.stop()

        asyncio.run(run())

    def test_heap_endpoint_starts_lazily(self, pipeline, wave, tmp_path):
        async def run():
            daemon = make_daemon(pipeline, tmp_path, monitor=False)
            await daemon.start()
            try:
                assert daemon._heap is None  # tracemalloc not yet paid for
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/heap"
                )
                assert status == 200
                report = json.loads(body)
                assert report["tracing"] is True
                assert daemon._heap is not None
                first = daemon._heap
                # The live heap profiler is now wired into the sampler.
                assert daemon.profiler.heap is first
                client = Client()
                await client.connect(daemon, "u-heap")
                client.send(protocol.window_frame(0, wave))
                await client.expect("result")
                status, body = await _http_get(
                    daemon.config.host, daemon.admin_port, "/debug/prof/heap"
                )
                assert status == 200
                report = json.loads(body)
                assert daemon._heap is first  # reused, not restarted
                assert report["current_bytes"] >= 0
                client.close()
            finally:
                await daemon.stop()
            assert daemon._heap is None  # stop() tore tracemalloc down

        asyncio.run(run())
