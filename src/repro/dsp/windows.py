"""Frame segmentation and analysis windows."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _hann_window_cached(length: int) -> np.ndarray:
    window = hann_window(length)
    window.setflags(write=False)
    return window


def hann_window(length: int) -> np.ndarray:
    """Return a periodic Hann window of ``length`` samples."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def hamming_window(length: int) -> np.ndarray:
    """Return a periodic Hamming window of ``length`` samples."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)


def frame_signal(
    signal: np.ndarray,
    frame_length: int,
    hop_length: int,
    pad: bool = True,
) -> np.ndarray:
    """Slice a 1-D signal into overlapping frames.

    Parameters
    ----------
    signal:
        One-dimensional sample array.
    frame_length:
        Samples per frame.
    hop_length:
        Samples between successive frame starts.
    pad:
        When true, zero-pad the tail so every sample lands in some frame;
        otherwise drop the incomplete tail frame.

    Returns
    -------
    Array of shape ``(n_frames, frame_length)``.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if frame_length < 1 or hop_length < 1:
        raise ValueError("frame_length and hop_length must be >= 1")
    n = signal.shape[0]
    if n == 0:
        return np.zeros((0, frame_length))
    if pad:
        n_frames = max(1, int(np.ceil(max(n - frame_length, 0) / hop_length)) + 1)
        needed = (n_frames - 1) * hop_length + frame_length
        if needed > n:
            signal = np.concatenate([signal, np.zeros(needed - n)])
    else:
        if n < frame_length:
            return np.zeros((0, frame_length))
        n_frames = 1 + (n - frame_length) // hop_length
    idx = (
        np.arange(frame_length)[None, :]
        + hop_length * np.arange(n_frames)[:, None]
    )
    return signal[idx]


def frame_count(n_samples: int, frame_length: int, hop_length: int) -> int:
    """Frames :func:`frame_signal` produces for ``n_samples`` with ``pad=True``."""
    if n_samples == 0:
        return 0
    return max(
        1, int(np.ceil(max(n_samples - frame_length, 0) / hop_length)) + 1
    )


def padded_length(n_samples: int, frame_length: int, hop_length: int) -> int:
    """Samples :func:`frame_signal` pads ``n_samples`` to with ``pad=True``."""
    n_frames = frame_count(n_samples, frame_length, hop_length)
    return (n_frames - 1) * hop_length + frame_length if n_frames else 0


def frame_signal_batch(
    signals: np.ndarray | list[np.ndarray] | tuple[np.ndarray, ...],
    frame_length: int,
    hop_length: int,
    out: np.ndarray | None = None,
    padded: np.ndarray | None = None,
) -> np.ndarray:
    """Slice equal-length signals into overlapping frames at once.

    Equivalent to stacking :func:`frame_signal` (with ``pad=True``) over
    the batch axis, but frames every signal through one strided view of a
    single zero-padded block — the framing cost is paid once per batch,
    not once per signal per feature stage.

    Parameters
    ----------
    signals:
        A ``(batch, n_samples)`` stack or a sequence of equal-length 1-D
        signals; rows are copied straight into the padded block, so a
        sequence is never stacked first.
    out:
        Optional preallocated ``(batch, n_frames, frame_length)`` float64
        buffer the frames are materialized into.
    padded:
        Optional preallocated ``(batch, padded_length(n_samples, ...))``
        float64 buffer for the zero-padded block.  The batched feature
        front end passes both buffers from its per-thread workspace, so
        framing a chunk allocates nothing.

    Returns
    -------
    Array of shape ``(batch, n_frames, frame_length)``.
    """
    if isinstance(signals, np.ndarray) and signals.ndim != 2:
        raise ValueError("signals must be a (batch, n_samples) stack")
    if frame_length < 1 or hop_length < 1:
        raise ValueError("frame_length and hop_length must be >= 1")
    rows = [np.asarray(signal, dtype=np.float64) for signal in signals]
    batch = len(rows)
    n = rows[0].shape[0] if rows else 0
    if any(row.shape != (n,) for row in rows):
        raise ValueError("signals must be 1-D and of equal length")
    if n == 0:
        return np.zeros((batch, 0, frame_length))
    n_frames = frame_count(n, frame_length, hop_length)
    width = padded_length(n, frame_length, hop_length)
    if padded is None:
        padded = np.empty((batch, width))
    elif padded.shape != (batch, width):
        raise ValueError(
            f"padded must have shape {(batch, width)}, got {padded.shape}"
        )
    for i, row in enumerate(rows):
        padded[i, :n] = row
    padded[:, n:] = 0.0
    view = np.lib.stride_tricks.sliding_window_view(
        padded, frame_length, axis=1
    )[:, ::hop_length]
    shape = (batch, n_frames, frame_length)
    if out is None:
        return np.ascontiguousarray(view)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    np.copyto(out, view)
    return out
