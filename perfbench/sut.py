"""Launching and stopping a system-under-test process.

Each launch is a fresh interpreter with the caller's environment (BLAS
and OpenMP thread variables untouched) plus the program's ``src`` on the
import path.  A reader thread drains the child's stdout into a queue, so
the pipe never fills, and :meth:`Launch.expect` waits for a given line.
"""

from __future__ import annotations

import queue
import signal
import subprocess
import sys
import threading
import time

from common import ROOT, sut_env


class Launch:
    """One system-under-test process and its stdout lines."""

    def __init__(self, args: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *args], cwd=ROOT, env=sut_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.pid = self.proc.pid
        self.lines: list[str] = []
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        """The next stdout line starting with ``prefix``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self._queue.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError(f"no {prefix!r} line within {timeout} s: "
                                   f"{self.tail()}") from None
            if line is None:
                raise RuntimeError(f"process exited before {prefix!r}: "
                                   f"{self.tail()}")
            self.lines.append(line)
            if line.startswith(prefix):
                return line

    def tail(self) -> str:
        return " | ".join(self.lines[-8:])

    def stop(self, timeout: float = 30.0) -> int:
        """Interrupt the process (SIGINT), then kill it if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        return self.wait(timeout)

    def wait(self, timeout: float = 30.0) -> int:
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout)
        while True:  # keep what the reader collected after the last expect
            try:
                line = self._queue.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.lines.append(line)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.wait(10.0)
