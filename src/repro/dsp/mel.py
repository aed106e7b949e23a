"""Mel-scale filterbanks and MFCC extraction."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dsp.spectral import power_spectrogram


def hz_to_mel(hz: np.ndarray | float) -> np.ndarray | float:
    """Convert Hz to mel (O'Shaughnessy formula)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    """Convert mel to Hz (inverse of :func:`hz_to_mel`)."""
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int,
    n_fft: int,
    sample_rate: float,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> np.ndarray:
    """Triangular mel filterbank of shape ``(n_mels, n_fft // 2 + 1)``."""
    if fmax is None:
        fmax = sample_rate / 2.0
    if not 0.0 <= fmin < fmax <= sample_rate / 2.0:
        raise ValueError("require 0 <= fmin < fmax <= sample_rate / 2")
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    mel_points = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    bins = np.clip(bins, 0, n_fft // 2)
    fbank = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(1, n_mels + 1):
        left, center, right = bins[m - 1], bins[m], bins[m + 1]
        if center > left:
            k = np.arange(left, center)
            fbank[m - 1, k] = (k - left) / (center - left)
        if right > center:
            k = np.arange(center, right)
            fbank[m - 1, k] = (right - k) / (right - center)
        # Degenerate triangles (all three bins identical at low resolution)
        # get a single unity tap so no filter is silently empty.
        if fbank[m - 1].sum() == 0.0:
            fbank[m - 1, center] = 1.0
    return fbank


@lru_cache(maxsize=32)
def mel_filterbank_cached(
    n_mels: int,
    n_fft: int,
    sample_rate: float,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> np.ndarray:
    """Memoized, read-only :func:`mel_filterbank`.

    Filterbank construction is a Python loop over filters; the serving
    hot path extracts features for every flush with the same
    configuration, so the bank is built once per config and shared
    (marked read-only so accidental mutation fails loudly).
    """
    fbank = mel_filterbank(n_mels, n_fft, sample_rate, fmin=fmin, fmax=fmax)
    fbank.setflags(write=False)
    return fbank


def mfcc_from_power(
    spec: np.ndarray,
    sample_rate: float,
    n_mfcc: int = 13,
    n_mels: int = 26,
    n_fft: int = 512,
    eps: float = 1e-10,
) -> np.ndarray:
    """MFCCs from an already-computed power spectrogram.

    ``spec`` may be ``(n_frames, n_fft // 2 + 1)`` or a batched
    ``(..., n_frames, n_fft // 2 + 1)`` stack; the mel projection, log,
    and DCT all broadcast over leading axes.  This is the shared tail of
    :func:`mfcc` and the batched feature front end — both paths run the
    identical arithmetic, which is what the batch-vs-single parity gate
    relies on.
    """
    if n_mfcc > n_mels:
        raise ValueError("n_mfcc must not exceed n_mels")
    fbank = mel_filterbank_cached(n_mels, n_fft, sample_rate)
    mel_energy = spec @ fbank.T
    log_mel = np.log(mel_energy + eps)
    return dct_ii(log_mel, n_out=n_mfcc)


@lru_cache(maxsize=32)
def _dct_ii_basis(n: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized, read-only cosine basis and scale of :func:`dct_ii`.

    The batched front end calls :func:`dct_ii` once per chunk with the
    same shape, so the basis is built once per ``(n, n_out)``.
    """
    k = np.arange(n_out)[:, None]
    m = np.arange(n)[None, :]
    basis = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n))
    scale = np.full(n_out, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    scale.setflags(write=False)
    return basis, scale


def dct_ii(x: np.ndarray, n_out: int | None = None) -> np.ndarray:
    """Orthonormal DCT-II along the last axis.

    Equivalent to ``scipy.fft.dct(x, type=2, norm="ortho")`` but implemented
    locally so the DSP substrate has no hidden dependencies.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n_out is None:
        n_out = n
    basis, scale = _dct_ii_basis(n, n_out)
    return (x @ basis.T) * scale


def mfcc(
    signal: np.ndarray,
    sample_rate: float,
    n_mfcc: int = 13,
    n_mels: int = 26,
    n_fft: int = 512,
    hop_length: int = 160,
    eps: float = 1e-10,
) -> np.ndarray:
    """Mel-frequency cepstral coefficients, shape ``(n_frames, n_mfcc)``."""
    spec = power_spectrogram(signal, n_fft=n_fft, hop_length=hop_length)
    return mfcc_from_power(
        spec, sample_rate, n_mfcc=n_mfcc, n_mels=n_mels, n_fft=n_fft, eps=eps
    )
