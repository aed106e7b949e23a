"""Size of the OpenBLAS thread pool numpy has loaded.

The daemon's worker runs batched DSP whose matrix products go through
BLAS.  At flush sizes a second BLAS thread buys no speed, yet its
spinning pool doubles the CPU each window costs, so the daemon pins the
pool to one thread while it serves (:class:`~repro.daemon.server.
ReproDaemon`).  This module finds the pool's controls without a
third-party dependency: the OpenBLAS shared object numpy already mapped
(read off ``/proc/self/maps``) and its setter/getter symbols through
``ctypes``.  Where that fails — another BLAS, another OS — every call
reports ``None`` and changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy  # noqa: F401 — maps the BLAS library this module looks up

#: ``(setter, getter)`` symbol pairs, by OpenBLAS build: the
#: scipy-openblas wheels numpy ships, 64-bit-integer builds, plain builds.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _mapped_openblas() -> list[str]:
    """Paths of mapped shared objects whose file name mentions openblas."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(None, 5)  # address perms offset dev inode path
        if len(fields) < 6:
            continue
        path = fields[5]
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


@functools.cache
def _controls():
    """The pool's ``(setter, getter)`` functions, or ``None``."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> int | None:
    """Threads in numpy's OpenBLAS pool, or ``None`` if it can't be read."""
    controls = _controls()
    return None if controls is None else int(controls[1]())


def set_blas_threads(n: int) -> int | None:
    """Resize the pool to ``n`` threads; returns the previous size.

    ``None`` means the pool can't be controlled and nothing changed.
    """
    controls = _controls()
    if controls is None:
        return None
    setter, getter = controls
    previous = int(getter())
    setter(n)
    return previous
