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
    padded_length,
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
            Timer("dsp.features.extract_s"):
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

    Every large intermediate of a chunk — the padded signal block, the
    frames, the 512- and 1024-point spectra, magnitude, power and ACF —
    is written with ``out=`` into a named buffer that persists across
    calls and only grows.  Stages that run one after another share a
    name (see :func:`_extract_chunk`), and a chunk holds a bounded
    number of windows, so the workspace stops growing after the first
    chunk instead of scaling with flush size.  One workspace per thread
    (via ``threading.local``) keeps concurrent extractions race-free
    without a lock on the hot path.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def get(
        self, name: str, shape: tuple[int, ...], dtype: type = np.float64
    ) -> np.ndarray:
        """A scratch array of ``shape`` and ``dtype``, reused between calls.

        Buffers are float64 underneath; a complex128 request views two
        float64 slots per element, so one name can hold a complex
        spectrum in one stage and a real array in the next.
        """
        itemsize = np.dtype(dtype).itemsize
        n = itemsize // 8
        for dim in shape:
            n *= dim
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < n:
            buffer = np.empty(n, dtype=np.float64)
            self._buffers[name] = buffer
        return buffer[:n].view(dtype).reshape(shape)


_workspaces = threading.local()


def _workspace() -> _BatchWorkspace:
    workspace = getattr(_workspaces, "value", None)
    if workspace is None:
        workspace = _BatchWorkspace()
        _workspaces.value = workspace
    return workspace


#: Float64 bytes of frames per chunk (~0.5 MB: two 0.9 s windows),
#: rounded down to whole windows and never below one.  This bounds the
#: workspace (~7x the frames across all stages: 3.2 MB for two 0.9 s
#: windows) whatever the flush size.  Intermediates built fresh for
#: every chunk cost the daemon ~390 minor page faults per window,
#: against ~3 with the workspace.  One-window chunks ran 3-6% slower
#: (per-chunk Python overhead), four-window ones no faster.
_CHUNK_BYTES = 1 << 19


def _pitch_from_frames(
    frames: np.ndarray,
    out: np.ndarray,
    sample_rate: float,
    frame_length: int,
    fmin: float,
    fmax: float,
    workspace: _BatchWorkspace,
) -> None:
    """Vectorized :func:`pitch_track` over a ``(rows, len)`` frame chunk.

    Uses the workspace's ``scratch``, ``spectrum`` and ``power``
    buffers; the ACF overwrites the spectrum once its power is taken.
    """
    lag_min = max(1, int(sample_rate / fmax))
    lag_max = min(frame_length - 1, int(sample_rate / fmin))
    out[:] = 0.0
    rows = frames.shape[0]
    if lag_max <= lag_min or rows == 0:
        return
    demeaned = workspace.get("scratch", frames.shape)
    np.subtract(frames, frames.mean(axis=-1, keepdims=True), out=demeaned)
    n_pad = 2 * frame_length
    n_bins = n_pad // 2 + 1
    spectrum = workspace.get("spectrum", (rows, n_bins), np.complex128)
    np.fft.rfft(demeaned, n=n_pad, axis=-1, out=spectrum)
    # irfft takes complex input: handing it the power as a complex array
    # with a zero imaginary part skips the full-size cast copy numpy
    # makes of a real one, and feeds it the same values.
    power = workspace.get("power", (rows, n_bins), np.complex128)
    np.abs(spectrum, out=power.real)
    np.multiply(power.real, power.real, out=power.real)
    power.imag = 0.0
    acf = workspace.get("spectrum", (rows, n_pad))
    np.fft.irfft(power, n=n_pad, axis=-1, out=acf)
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


def _extract_chunk(
    signals: list[np.ndarray],
    out: np.ndarray,
    config: FeatureConfig,
    workspace: _BatchWorkspace,
) -> None:
    """Write the base feature columns of equal-length windows into ``out``.

    ``out`` is the ``(windows * n_frames, n_features)`` row slice of the
    group's result.  The windows are framed once and one ``rfft`` over
    the Hann-windowed frames feeds both the MFCC power path and the
    magnitude statistics.  Buffers are shared by stages that never
    overlap: ``scratch`` holds the windowed frames, then the squared
    frames for RMS, then pitch's de-meaned frames; ``spectrum`` holds
    the 512-point spectrum, then pitch's 1024-point spectrum and ACF;
    ``power`` the 512-point power, then pitch's 1024-point power.
    """
    n_fft, hop, k = config.n_fft, config.hop_length, config.n_mfcc
    count, rows = len(signals), out.shape[0]
    n_frames, n_samples = rows // count, signals[0].shape[0]
    frames = frame_signal_batch(
        signals, n_fft, hop,
        out=workspace.get("frames", (count, n_frames, n_fft)),
        padded=workspace.get(
            "padded", (count, padded_length(n_samples, n_fft, hop))
        ),
    ).reshape(rows, n_fft)

    windowed = workspace.get("scratch", (rows, n_fft))
    np.multiply(frames, _hann_window_cached(n_fft), out=windowed)
    n_bins = n_fft // 2 + 1
    spectrum = workspace.get("spectrum", (rows, n_bins), np.complex128)
    np.fft.rfft(windowed, n=n_fft, axis=-1, out=spectrum)
    mag = workspace.get("magnitude", (rows, n_bins))
    np.abs(spectrum, out=mag)
    power = workspace.get("power", (rows, n_bins))
    np.multiply(mag, mag, out=power)
    out[:, :k] = mfcc_from_power(
        power, config.sample_rate,
        n_mfcc=k, n_mels=config.n_mels, n_fft=n_fft,
    )
    out[:, k + 3] = mag.mean(axis=-1)
    out[:, k + 4] = mag.std(axis=-1)

    _zcr_from_frames(frames, out[:, k])
    squared = workspace.get("scratch", (rows, n_fft))
    np.multiply(frames, frames, out=squared)
    np.sqrt(squared.mean(axis=-1), out=out[:, k + 1])
    pitch = out[:, k + 2]
    _pitch_from_frames(
        frames, pitch, config.sample_rate, n_fft,
        config.pitch_fmin, config.pitch_fmax, workspace,
    )
    np.divide(pitch, 100.0, out=pitch)


def _extract_group(
    signals: list[np.ndarray], config: FeatureConfig
) -> np.ndarray:
    """Batched feature tensor for equal-length signals.

    Runs :func:`_extract_chunk` over chunks of whole windows sized by
    :data:`_CHUNK_BYTES`, writing straight into the result.  Chunks hold
    whole windows because the BLAS products in the MFCC tail may round
    differently for a different row count: a window split across chunks
    drifts from the single path by ~1e-15, while a chunk of whole
    windows gives each window its single-path bits.

    Returns an array of shape ``(batch, n_frames, config.n_features)``.
    """
    workspace = _workspace()
    batch = len(signals)
    n_frames = frame_count(signals[0].shape[0], config.n_fft,
                           config.hop_length)
    flat = np.empty((batch * n_frames, config.n_features))
    per_chunk = max(1, _CHUNK_BYTES // (8 * config.n_fft * n_frames))
    for start in range(0, batch, per_chunk):
        stop = min(start + per_chunk, batch)
        _extract_chunk(signals[start:stop],
                       flat[start * n_frames : stop * n_frames],
                       config, workspace)
    out = flat.reshape(batch, n_frames, config.n_features)
    if config.deltas:
        k = config.n_mfcc
        deltas = out[..., k + 5:]
        deltas[:, 0] = 0.0
        np.subtract(out[:, 1:, :k], out[:, :-1, :k], out=deltas[:, 1:])
    return out


def extract_feature_matrix_batch(
    signals: list[np.ndarray] | tuple[np.ndarray, ...],
    config: FeatureConfig | None = None,
    nonfinite: str = "sanitize",
) -> list[np.ndarray]:
    """Batched :func:`extract_feature_matrix` over many windows at once.

    Signals are grouped by length and each group runs in chunks of whole
    windows: one strided frame tensor and one batched ``rfft`` per chunk
    (instead of five framings and per-stage FFTs per window), with every
    large intermediate written into per-thread buffers reused across
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
    ), Timer("dsp.features.extract_batch_s"):
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
            group = _extract_group([cleaned[i] for i in indices], config)
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
