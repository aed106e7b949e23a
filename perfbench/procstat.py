"""Readings of a running process taken from ``/proc`` (Linux only).

The benchmark observes the system under test from outside: on-CPU time
per thread from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds,
user plus system), the process total from ``/proc/<pid>/stat`` (clock
ticks, includes threads that already exited), and peak resident memory
from ``VmHWM`` in ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def thread_cpu_ns(pid: int) -> dict[int, int]:
    """On-CPU nanoseconds of every live thread of ``pid``, by thread id."""
    out: dict[int, int] = {}
    base = f"/proc/{pid}/task"
    for name in os.listdir(base):
        try:
            with open(f"{base}/{name}/schedstat") as f:
                out[int(name)] = int(f.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread exited between listdir and open
    return out


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid``, every thread it ever ran."""
    with open(f"/proc/{pid}/stat") as f:
        # The command name may hold spaces; fields restart after ")".
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class CpuWindow:
    """CPU a process spends between :meth:`start` and :meth:`stop`.

    The total comes from per-thread ``schedstat`` (nanosecond precision)
    when every thread seen at the start is still alive at the stop, and
    from the coarser tick counts of ``/proc/<pid>/stat`` otherwise.
    ``per_thread`` holds each thread's share for the breakdown.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._threads0: dict[int, int] = {}
        self._ticks0 = 0.0
        self.per_thread: dict[int, float] = {}
        self.cpu_s = 0.0

    def start(self) -> None:
        self._threads0 = thread_cpu_ns(self.pid)
        self._ticks0 = process_cpu_s(self.pid)

    def stop(self) -> float:
        threads1 = thread_cpu_ns(self.pid)
        ticks = process_cpu_s(self.pid) - self._ticks0
        self.per_thread = {
            tid: (ns - self._threads0.get(tid, 0)) / 1e9
            for tid, ns in threads1.items()
        }
        exited = set(self._threads0) - set(threads1)
        self.cpu_s = ticks if exited else sum(self.per_thread.values())
        return self.cpu_s
