"""Shared pieces of the benchmark: paths, seeded inputs, summaries.

Everything the system under test receives is built here from the
workload seed, so the same seed always gives the same traffic.
"""

from __future__ import annotations

import base64
import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run debris (span dumps, Chrome traces, incident bundles); ignored by git.
OUT = ROOT / ".bench_build" / "perfbench"

#: Distinct utterances every workload draws its windows from.
POOL_SIZE = 24
POOL_SEED = 0
#: Seed of the program's own classifier: fixed, so only the traffic
#: follows the workload seed.
MODEL_SEED = 0
#: One window in this many is kept for the correctness check.
SAMPLE_EVERY = 16
#: Most windows the correctness check re-classifies per run.
SAMPLE_CAP = 96

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_WAIT_POLICY", "OPENBLAS_CORETYPE",
)


def require_checkout() -> None:
    """Exit non-zero unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sut_env() -> dict[str, str]:
    """Environment of a system-under-test process.

    The caller's environment is passed through unchanged apart from the
    import path: BLAS and OpenMP thread variables stay as found, so the
    program runs with its default thread pools.
    """
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def label_names() -> tuple[str, ...]:
    from repro.datasets.corpora import EMOVO_SPEC

    return EMOVO_SPEC.emotions


def make_pool() -> list[np.ndarray]:
    """The utterance pool (float64, 16 kHz, 0.9 s each).

    The pool is the same for every workload seed: which utterances the
    classifier labels alike decides how often a session's smoothed
    emotion changes, and so the controller's work per window.  A
    per-seed pool made that work, and with it serve-replay's throughput,
    differ by about 10% between seeds on a 2-vCPU Xeon host.  The seed varies the traffic
    instead: who sends which utterance when, gains, tags and phases.
    """
    from repro.datasets.speech import synthesize_utterance

    labels = label_names()
    return [
        synthesize_utterance(labels[i % len(labels)], actor=i % 4,
                             sentence=i % 3, take=i, seed=POOL_SEED)
        for i in range(POOL_SIZE)
    ]


class WireWindows:
    """Unique window frames for the wire workloads, built on demand.

    Frames follow the daemon's documented wire format (one JSON line,
    the signal as base64 little-endian float32).  Window ``k`` is a pool
    utterance at one of ``GAINS`` seeded gains between 0.95 and 1.05,
    with its first sample replaced by the exact tag ``k * 2**-30``.  The
    tag makes every window's content, and so its cache key, distinct,
    while the DSP work stays that of a real utterance.  The base64 of
    each (utterance, gain) is encoded once; a window re-encodes only its
    first six bytes, which hold the tag.  Building a frame therefore
    costs the generator about as much as copying it, not the
    ``json.dumps`` of 77 KB that made the generator take a seventh of a
    CPU at saturation on a 2-vCPU Xeon host.  A seeded sample of the windows is kept, as the
    float64 samples the daemon serves, for the correctness check.
    """

    GAINS = 8

    def __init__(self, pool: list[np.ndarray], seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.bases: list[tuple[np.ndarray, bytes]] = []
        for utterance in pool:
            for gain in 0.95 + 0.1 * self.rng.random(self.GAINS):
                signal = (utterance * gain).astype("<f4")
                self.bases.append((signal, base64.b64encode(signal.tobytes())))
        self.count = 0
        self.kept: dict[int, np.ndarray] = {}
        self._keep_phase = seed % SAMPLE_EVERY

    def frame(self, seq: int) -> tuple[int, bytes]:
        """The next window as ``(window id, wire frame)``."""
        k = self.count
        self.count += 1
        signal, payload = self.bases[int(self.rng.integers(len(self.bases)))]
        head = signal[:2].copy()
        head[0] = np.float32(k) * np.float32(2.0 ** -30)
        if k % SAMPLE_EVERY == self._keep_phase and len(self.kept) < SAMPLE_CAP:
            tagged = signal.astype(np.float64)
            tagged[0] = head[0]
            self.kept[k] = tagged
        # Six bytes are exactly eight base64 characters.
        return k, b"".join((b'{"seq":%d,"signal":"' % seq,
                            base64.b64encode(head.tobytes()[:6]),
                            payload[8:], b'","type":"window"}\n'))


def reference_labels(signals: list[np.ndarray]) -> list[str]:
    """Labels from the reference loop: ``prepare_waveform`` + the int8 model.

    Trains the same classifier the program serves (same function, same
    seed) and classifies each signal on its own, outside the serving
    stack.
    """
    from repro.serve.bench import train_bench_pipeline

    pipeline = train_bench_pipeline(seed=MODEL_SEED)
    model = pipeline.quantize()
    names = pipeline.classifier.label_names
    return [
        names[int(model.predict_batch(pipeline.prepare_waveform(s)[None])[0])]
        for s in signals
    ]


def quantile(values, q: float) -> float:
    """The ``q`` quantile (linear interpolation); 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def fingerprint() -> dict[str, object]:
    """Where a result was measured: interpreter, BLAS, CPU, source."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:  # not some enclosing repository
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {name: os.environ.get(name) for name in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }
