"""Classifier input features.

The paper (Section 2.2) feeds its classifiers "Mel-frequency cepstral
coefficients (MFCC), zero crossing, root-mean-square deviation (rmse), sound
pitch, and magnitude".  :func:`extract_feature_matrix` assembles exactly that
per-frame feature tensor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.dsp.mel import mfcc, mfcc_from_power
from repro.dsp.spectral import magnitude_spectrogram
from repro.dsp.windows import (
    _hann_window_cached,
    frame_count,
    frame_signal,
    frame_signal_batch,
)
from repro.errors import SensorError
from repro.obs import Timer, get_registry
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class FeatureConfig:
    """Configuration of the affect feature front end.

    ``deltas`` appends first-order temporal differences of the MFCCs
    (standard delta coefficients) — they encode the local prosodic
    dynamics the circumplex arousal axis rides on.
    """

    sample_rate: float = 16000.0
    n_fft: int = 512
    hop_length: int = 256
    n_mfcc: int = 13
    n_mels: int = 26
    pitch_fmin: float = 60.0
    pitch_fmax: float = 420.0
    deltas: bool = False

    @property
    def n_features(self) -> int:
        """Per-frame feature dimensionality (MFCC [+deltas] + ZCR + RMSE + pitch + 2 magnitude stats)."""
        base = self.n_mfcc + 4 + 1
        return base + (self.n_mfcc if self.deltas else 0)


def zero_crossing_rate(
    signal: np.ndarray, frame_length: int, hop_length: int
) -> np.ndarray:
    """Per-frame zero-crossing rate in [0, 1]."""
    frames = frame_signal(signal, frame_length, hop_length)
    if frames.shape[0] == 0:
        return np.zeros(0)
    if frames.shape[1] <= 1:
        # Single-sample frames have no sample-to-sample transitions.
        return np.zeros(frames.shape[0])
    signs = np.sign(frames)
    signs[signs == 0] = 1
    crossings = np.abs(np.diff(signs, axis=1)) / 2.0
    return crossings.sum(axis=1) / (frames.shape[1] - 1)


def rms_energy(
    signal: np.ndarray, frame_length: int, hop_length: int
) -> np.ndarray:
    """Per-frame root-mean-square energy."""
    frames = frame_signal(signal, frame_length, hop_length)
    if frames.shape[0] == 0:
        return np.zeros(0)
    return np.sqrt(np.mean(frames**2, axis=1))


def pitch_track(
    signal: np.ndarray,
    sample_rate: float,
    frame_length: int,
    hop_length: int,
    fmin: float = 60.0,
    fmax: float = 420.0,
) -> np.ndarray:
    """Per-frame fundamental frequency via autocorrelation peak picking.

    Unvoiced / silent frames report 0 Hz.
    """
    frames = frame_signal(signal, frame_length, hop_length)
    n_frames = frames.shape[0]
    if n_frames == 0:
        return np.zeros(0)
    lag_min = max(1, int(sample_rate / fmax))
    lag_max = min(frame_length - 1, int(sample_rate / fmin))
    if lag_max <= lag_min:
        return np.zeros(n_frames)
    windowed = frames - frames.mean(axis=1, keepdims=True)
    # Autocorrelation of every frame at once via FFT.
    n_pad = 2 * frame_length
    spectrum = np.fft.rfft(windowed, n=n_pad, axis=1)
    acf = np.fft.irfft(np.abs(spectrum) ** 2, n=n_pad, axis=1)[:, :frame_length]
    energy = acf[:, 0]
    pitches = np.zeros(n_frames)
    valid = energy > 1e-12
    if not np.any(valid):
        return pitches
    search = acf[:, lag_min : lag_max + 1]
    best_lag = np.argmax(search, axis=1) + lag_min
    best_val = search[np.arange(n_frames), best_lag - lag_min]
    voiced = valid & (best_val / np.maximum(energy, 1e-12) > 0.25)
    pitches[voiced] = sample_rate / best_lag[voiced]
    return pitches


def spectral_magnitude_stats(
    signal: np.ndarray, n_fft: int, hop_length: int
) -> np.ndarray:
    """Per-frame mean and standard deviation of the magnitude spectrum.

    Returns an array of shape ``(n_frames, 2)``.
    """
    mag = magnitude_spectrogram(signal, n_fft=n_fft, hop_length=hop_length)
    if mag.shape[0] == 0:
        return np.zeros((0, 2))
    return np.stack([mag.mean(axis=1), mag.std(axis=1)], axis=1)


def sanitize_signal(signal: np.ndarray, nonfinite: str = "sanitize") -> np.ndarray:
    """Guard a raw waveform against non-finite samples.

    Real sensor front ends drop out, rail, and glitch; NaN/Inf samples
    would otherwise propagate silently through every feature stage (MFCC
    log-energies turn a single NaN into an all-NaN column).  Policy:

    - ``"sanitize"``: non-finite samples are replaced with 0.0 (silence)
      and counted under ``dsp.features.nonfinite_samples``;
    - ``"raise"``: raise :class:`~repro.errors.SensorError` so the caller
      can retry the read or degrade.
    """
    if nonfinite not in ("sanitize", "raise"):
        raise ValueError(f"unknown nonfinite policy {nonfinite!r}")
    signal = np.asarray(signal, dtype=np.float64)
    finite = np.isfinite(signal)
    if finite.all():
        return signal
    n_bad = int(signal.size - np.count_nonzero(finite))
    obs = get_registry()
    obs.inc("dsp.features.nonfinite_samples", n_bad)
    if nonfinite == "raise":
        raise SensorError(
            f"{n_bad} non-finite samples in input signal "
            f"({signal.size} total)"
        )
    return np.where(finite, signal, 0.0)


def extract_feature_matrix(
    signal: np.ndarray,
    config: FeatureConfig | None = None,
    nonfinite: str = "sanitize",
) -> np.ndarray:
    """Assemble the paper's per-frame feature matrix.

    Columns are ``[mfcc_0..mfcc_{k-1}, zcr, rmse, pitch_hz/100, mag_mean,
    mag_std]`` — MFCCs plus zero crossing, RMS deviation, sound pitch and
    spectral magnitude, matching Section 2.2.  When ``config.deltas`` is
    true, ``k`` first-order MFCC delta columns (``delta_mfcc_0 ..
    delta_mfcc_{k-1}``, see :func:`delta_features`) are appended *after*
    ``mag_std``, giving ``config.n_features == 2k + 5`` columns in total.

    Each feature stage reports its latency to the process metrics
    registry under ``dsp.features.*`` (see :mod:`repro.obs`).

    Returns
    -------
    Array of shape ``(n_frames, config.n_features)``.
    """
    if config is None:
        config = FeatureConfig()
    obs = get_registry()
    signal = sanitize_signal(signal, nonfinite=nonfinite)
    # Nested under whatever request is in flight (serve traces); a no-op
    # for standalone feature extraction.
    with get_tracer().stage("dsp.extract",
                            attrs={"samples": int(signal.shape[0])}), \
            Timer("dsp.features.extract_s", span=True):
        with Timer("dsp.features.mfcc_s"):
            cepstra = mfcc(
                signal,
                config.sample_rate,
                n_mfcc=config.n_mfcc,
                n_mels=config.n_mels,
                n_fft=config.n_fft,
                hop_length=config.hop_length,
            )
        with Timer("dsp.features.zcr_s"):
            zcr = zero_crossing_rate(signal, config.n_fft, config.hop_length)
        with Timer("dsp.features.rmse_s"):
            rmse = rms_energy(signal, config.n_fft, config.hop_length)
        with Timer("dsp.features.pitch_s"):
            pitch = pitch_track(
                signal,
                config.sample_rate,
                config.n_fft,
                config.hop_length,
                fmin=config.pitch_fmin,
                fmax=config.pitch_fmax,
            )
        with Timer("dsp.features.magnitude_s"):
            mag = spectral_magnitude_stats(signal, config.n_fft, config.hop_length)
        counts = (
            cepstra.shape[0], zcr.shape[0], rmse.shape[0], pitch.shape[0],
            mag.shape[0],
        )
        n = min(counts)
        truncated = sum(counts) - 5 * n
        if truncated:
            # Stages disagreeing on frame count silently drop frames from
            # the longer stages; for every standard config they agree
            # (all five share frame_signal's pad=True formula), so any
            # nonzero count here is a front-end regression signal.
            obs.inc("dsp.features.truncated_frames", truncated)
        columns = [
            cepstra[:n],
            zcr[:n, None],
            rmse[:n, None],
            pitch[:n, None] / 100.0,
            mag[:n],
        ]
        if config.deltas:
            with Timer("dsp.features.deltas_s"):
                columns.append(delta_features(cepstra[:n]))
        matrix = np.concatenate(columns, axis=1)
    obs.inc("dsp.features.calls")
    obs.inc("dsp.features.frames", n)
    return matrix


class _BatchWorkspace:
    """Per-thread scratch buffers for the batched feature front end.

    Every flush re-frames a fresh batch of windows; the frame tensor,
    windowed product, and de-meaned pitch input are the three large
    intermediates, so they are materialized into buffers that persist
    across calls and only grow.  One workspace per thread (via
    ``threading.local``) keeps concurrent extractions race-free without
    a lock on the hot path.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 scratch array of ``shape``, reused between calls."""
        n = 1
        for dim in shape:
            n *= dim
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < n:
            buffer = np.empty(n, dtype=np.float64)
            self._buffers[name] = buffer
        return buffer[:n].reshape(shape)


_workspaces = threading.local()


def _workspace() -> _BatchWorkspace:
    workspace = getattr(_workspaces, "value", None)
    if workspace is None:
        workspace = _BatchWorkspace()
        _workspaces.value = workspace
    return workspace


#: Float64 bytes of frame rows processed per chunk (~2 MB, rounded down
#: to whole windows).  The frame tensor for a whole flush can run to tens
#: of MB; streaming the frame-wise stages through L2-resident chunks is
#: ~2x faster than one monolithic pass over memory-bound intermediates.
_CHUNK_BYTES = 1 << 21


def _pitch_from_frames(
    frames: np.ndarray,
    out: np.ndarray,
    sample_rate: float,
    frame_length: int,
    fmin: float,
    fmax: float,
    workspace: _BatchWorkspace,
) -> None:
    """Vectorized :func:`pitch_track` over a ``(rows, len)`` frame chunk."""
    lag_min = max(1, int(sample_rate / fmax))
    lag_max = min(frame_length - 1, int(sample_rate / fmin))
    out[:] = 0.0
    if lag_max <= lag_min or frames.shape[0] == 0:
        return
    demeaned = workspace.get("pitch_demeaned", frames.shape)
    np.subtract(frames, frames.mean(axis=-1, keepdims=True), out=demeaned)
    n_pad = 2 * frame_length
    spectrum = np.fft.rfft(demeaned, n=n_pad, axis=-1)
    acf = np.fft.irfft(
        np.abs(spectrum) ** 2, n=n_pad, axis=-1
    )[..., :frame_length]
    energy = acf[..., 0]
    search = acf[..., lag_min : lag_max + 1]
    best_lag = np.argmax(search, axis=-1) + lag_min
    best_val = np.take_along_axis(
        search, (best_lag - lag_min)[..., None], axis=-1
    )[..., 0]
    voiced = (energy > 1e-12) & (
        best_val / np.maximum(energy, 1e-12) > 0.25
    )
    out[voiced] = sample_rate / best_lag[voiced]


def _zcr_from_frames(frames: np.ndarray, out: np.ndarray) -> None:
    """Vectorized :func:`zero_crossing_rate` over a ``(rows, len)`` chunk.

    ``x < 0`` reproduces the reference path's sign convention (zeros —
    including ``-0.0``, which ``np.sign`` maps to ``0`` before the
    ``signs == 0`` rewrite — count as positive) with boolean temporaries
    an eighth the size of the float sign arrays.
    """
    if frames.shape[-1] <= 1:
        out[:] = 0.0
        return
    negative = frames < 0
    crossings = negative[..., 1:] ^ negative[..., :-1]
    np.divide(
        crossings.sum(axis=-1), frames.shape[-1] - 1, out=out
    )


def _extract_group(
    stack: np.ndarray, config: FeatureConfig
) -> np.ndarray:
    """Batched feature tensor for equal-length signals.

    The heart of the batched front end: all windows are framed *once*
    through one strided frame tensor (the per-window path re-frames the
    signal five times — once per stage), and one batched ``rfft`` over
    the Hann-windowed frames feeds both the MFCC power path and the
    magnitude statistics.  The frame-wise stages then stream through
    cache-resident row chunks.

    Returns an array of shape ``(batch, n_frames, config.n_features)``.
    """
    workspace = _workspace()
    n_fft, hop = config.n_fft, config.hop_length
    batch, n_samples = stack.shape
    n_frames = frame_count(n_samples, n_fft, hop)
    frames = frame_signal_batch(
        stack, n_fft, hop,
        out=workspace.get("frames", (batch, n_frames, n_fft)),
    )
    rows = batch * n_frames
    flat = frames.reshape(rows, n_fft)
    window = _hann_window_cached(n_fft)

    cepstra = np.empty((rows, config.n_mfcc))
    zcr = np.empty(rows)
    rmse = np.empty(rows)
    pitch = np.empty(rows)
    mag_stats = np.empty((rows, 2))
    # Chunks hold whole windows: the BLAS products in the MFCC tail may
    # round differently for a short remainder block, so a window split
    # across chunks (or sharing a short last chunk) would drift from
    # the single path by ~1e-15.
    chunk = max(1, _CHUNK_BYTES // (8 * n_fft * n_frames)) * n_frames
    for start in range(0, rows, chunk):
        end = min(start + chunk, rows)
        piece = flat[start:end]
        windowed = workspace.get("windowed", piece.shape)
        np.multiply(piece, window, out=windowed)
        mag = np.abs(np.fft.rfft(windowed, n=n_fft, axis=-1))
        power = mag**2
        cepstra[start:end] = mfcc_from_power(
            power, config.sample_rate,
            n_mfcc=config.n_mfcc, n_mels=config.n_mels, n_fft=n_fft,
        )
        mag_stats[start:end, 0] = mag.mean(axis=-1)
        mag_stats[start:end, 1] = mag.std(axis=-1)
        _zcr_from_frames(piece, zcr[start:end])
        np.sqrt(np.mean(piece**2, axis=-1), out=rmse[start:end])
        _pitch_from_frames(
            piece, pitch[start:end], config.sample_rate, n_fft,
            config.pitch_fmin, config.pitch_fmax, workspace,
        )

    shape = (batch, n_frames)
    columns = [
        cepstra.reshape(*shape, config.n_mfcc),
        zcr.reshape(*shape, 1),
        rmse.reshape(*shape, 1),
        pitch.reshape(*shape, 1) / 100.0,
        mag_stats.reshape(*shape, 2),
    ]
    if config.deltas:
        mfccs = columns[0]
        deltas = np.zeros_like(mfccs)
        if n_frames > 1:
            deltas[:, 1:] = np.diff(mfccs, axis=1)
        columns.append(deltas)
    return np.concatenate(columns, axis=-1)


def extract_feature_matrix_batch(
    signals: list[np.ndarray] | tuple[np.ndarray, ...],
    config: FeatureConfig | None = None,
    nonfinite: str = "sanitize",
) -> list[np.ndarray]:
    """Batched :func:`extract_feature_matrix` over many windows at once.

    Signals are grouped by length, each group framed through one strided
    frame tensor and one batched ``rfft`` (instead of five framings and
    per-stage FFTs per window), with scratch buffers reused across
    flushes.  Every stage reads the *same* frame tensor, so the
    cross-stage frame-count truncation of the per-window path cannot
    occur here by construction.

    Output is bitwise equal to the per-window path for every batch size
    (``tests/test_dsp_batch.py`` pins this with ``array_equal``).

    Returns
    -------
    A list of ``(n_frames_i, config.n_features)`` matrices aligned with
    ``signals``.
    """
    if config is None:
        config = FeatureConfig()
    if not signals:
        return []
    obs = get_registry()
    cleaned = [sanitize_signal(s, nonfinite=nonfinite) for s in signals]
    for signal in cleaned:
        if signal.ndim != 1:
            raise ValueError("each signal must be one-dimensional")
    with get_tracer().stage(
        "dsp.extract_batch", attrs={"windows": len(cleaned)}
    ), Timer("dsp.features.extract_batch_s", span=True):
        by_length: dict[int, list[int]] = {}
        for i, signal in enumerate(cleaned):
            by_length.setdefault(signal.shape[0], []).append(i)
        results: list[np.ndarray | None] = [None] * len(cleaned)
        total_frames = 0
        for length, indices in by_length.items():
            if length == 0:
                empty = np.zeros((0, config.n_features))
                for i in indices:
                    results[i] = empty
                continue
            stack = np.stack([cleaned[i] for i in indices])
            group = _extract_group(stack, config)
            total_frames += group.shape[0] * group.shape[1]
            for row, i in enumerate(indices):
                results[i] = group[row]
    obs.inc("dsp.features.batch_calls")
    obs.inc("dsp.features.batch_windows", len(cleaned))
    obs.inc("dsp.features.frames", total_frames)
    return results  # type: ignore[return-value]


def delta_features(features: np.ndarray) -> np.ndarray:
    """First-order temporal differences with a same-length output.

    ``delta[t] = features[t] - features[t - 1]``; the first frame's delta
    is zero.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("expected a (frames, features) matrix")
    deltas = np.zeros_like(features)
    if features.shape[0] > 1:
        deltas[1:] = np.diff(features, axis=0)
    return deltas
