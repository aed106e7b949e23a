"""Batched DSP front-end parity and accounting.

The serve runtime's flush-time DSP rides on one invariant: a window
extracted through :func:`extract_feature_matrix_batch` is identical to
the same window through :func:`extract_feature_matrix`.  These tests pin
that equality (exact, not approximate — the batch path reuses the single
path's arithmetic), the frame-count truncation accounting, and the
workspace reuse the hot path depends on.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.dsp import features as features_module
from repro.dsp.features import (
    FeatureConfig,
    extract_feature_matrix,
    extract_feature_matrix_batch,
)
from repro.dsp.windows import frame_count
from repro.errors import SensorError
from repro.obs import get_registry


def _signal(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000.0
    return (
        np.sin(2 * np.pi * 220.0 * t)
        + 0.3 * np.sin(2 * np.pi * 570.0 * t)
        + 0.05 * rng.standard_normal(n)
    )


CONFIGS = [
    FeatureConfig(),
    FeatureConfig(deltas=True),
    FeatureConfig(hop_length=128),
    FeatureConfig(n_fft=256, hop_length=80, n_mels=20, n_mfcc=10),
]


class TestBatchSingleParity:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_exact_parity_uniform_lengths(self, config):
        signals = [_signal(16000, seed=i) for i in range(4)]
        batched = extract_feature_matrix_batch(signals, config)
        for signal, matrix in zip(signals, batched):
            single = extract_feature_matrix(signal, config)
            assert np.array_equal(matrix, single)

    def test_exact_parity_mixed_lengths_keeps_order(self):
        config = FeatureConfig()
        lengths = [16000, 12345, 8000, 16000, 300, 1, 12345]
        signals = [_signal(n, seed=i) for i, n in enumerate(lengths)]
        batched = extract_feature_matrix_batch(signals, config)
        assert len(batched) == len(signals)
        for signal, matrix in zip(signals, batched):
            assert np.array_equal(matrix, extract_feature_matrix(signal,
                                                                 config))

    def test_exact_parity_for_every_batch_size(self):
        # Flush sizes vary with load.  Chunks hold two 0.9 s windows
        # (56 frames each), so an odd batch ends in a one-window chunk;
        # when chunks were cut at a fixed row count instead, batches of
        # 19 and 28 left a short last block that drifted by ~1e-15.
        config = FeatureConfig()
        signals = [_signal(14400, seed=i) for i in range(32)]
        singles = [extract_feature_matrix(s, config) for s in signals]
        for size in range(1, len(signals) + 1):
            batched = extract_feature_matrix_batch(signals[:size], config)
            for single, matrix in zip(singles, batched):
                assert np.array_equal(matrix, single), size

    def test_frame_counts_match_frame_count_helper(self):
        config = FeatureConfig()
        for n in (16000, 8000, 513, 512, 300, 1):
            matrix = extract_feature_matrix_batch([_signal(n)], config)[0]
            assert matrix.shape == (
                frame_count(n, config.n_fft, config.hop_length),
                config.n_features,
            )

    def test_empty_batch_and_empty_signal(self):
        config = FeatureConfig()
        assert extract_feature_matrix_batch([], config) == []
        matrix = extract_feature_matrix_batch([np.zeros(0)], config)[0]
        assert matrix.shape == (0, config.n_features)

    def test_rejects_non_1d_signals(self):
        with pytest.raises(ValueError):
            extract_feature_matrix_batch([np.zeros((4, 4))])

    def test_nonfinite_sanitize_matches_single_path(self):
        config = FeatureConfig()
        signal = _signal(4000)
        signal[100] = np.nan
        signal[2000] = np.inf
        batched = extract_feature_matrix_batch([signal], config)[0]
        single = extract_feature_matrix(signal, config)
        assert np.isfinite(batched).all()
        assert np.array_equal(batched, single)

    def test_nonfinite_raise_policy(self):
        signal = _signal(2000)
        signal[5] = np.nan
        with pytest.raises(SensorError):
            extract_feature_matrix_batch([signal], nonfinite="raise")


class TestTruncationAccounting:
    def test_standard_configs_never_truncate(self):
        obs = get_registry()
        obs.reset()
        for config in CONFIGS:
            extract_feature_matrix(_signal(7321), config)
            extract_feature_matrix_batch([_signal(5000)], config)
        counters = obs.snapshot()["counters"]
        assert "dsp.features.truncated_frames" not in counters

    def test_stage_disagreement_truncates_and_counts(self, monkeypatch):
        # All five stages share frame_signal's pad=True frame count, so
        # truncation cannot happen organically; shorten one stage to
        # prove the accounting catches a front-end regression.
        obs = get_registry()
        obs.reset()
        real_zcr = features_module.zero_crossing_rate

        def short_zcr(signal, frame_length, hop_length):
            return real_zcr(signal, frame_length, hop_length)[:-2]

        monkeypatch.setattr(features_module, "zero_crossing_rate", short_zcr)
        config = FeatureConfig()
        signal = _signal(16000)
        n_frames = frame_count(16000, config.n_fft, config.hop_length)
        matrix = extract_feature_matrix(signal, config)
        assert matrix.shape[0] == n_frames - 2
        counters = obs.snapshot()["counters"]
        # Four stages each lost 2 frames against the shortened minimum.
        assert counters["dsp.features.truncated_frames"] == 8


class TestBatchMetricsAndWorkspace:
    def test_batch_metrics_emitted(self):
        obs = get_registry()
        obs.reset()
        config = FeatureConfig()
        extract_feature_matrix_batch([_signal(4000, seed=i)
                                      for i in range(3)], config)
        counters = obs.snapshot()["counters"]
        assert counters["dsp.features.batch_calls"] == 1
        assert counters["dsp.features.batch_windows"] == 3
        assert counters["dsp.features.frames"] == 3 * frame_count(
            4000, config.n_fft, config.hop_length
        )

    def test_workspace_buffers_reused_across_flushes(self):
        workspace = features_module._workspace()
        first = workspace.get("probe", (64, 32))
        again = workspace.get("probe", (64, 32))
        assert np.shares_memory(first, again)
        smaller = workspace.get("probe", (16, 8))
        assert np.shares_memory(first, smaller)
        complex_view = workspace.get("probe", (16, 8), np.complex128)
        assert complex_view.dtype == np.complex128
        assert np.shares_memory(first, complex_view)

    def test_warm_batch_allocates_little_beyond_its_outputs(self):
        # Every large intermediate is written into the workspace, so a
        # warm flush allocates about its outputs plus small per-chunk
        # temporaries; building them fresh per ~2 MB chunk peaked at
        # 19.5 MB for these 32 windows.
        config = FeatureConfig()
        signals = [_signal(14400, seed=i) for i in range(32)]
        extract_feature_matrix_batch(signals, config)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batched = extract_feature_matrix_batch(signals, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        outputs = sum(matrix.nbytes for matrix in batched)
        assert peak - outputs < 1 << 20, (peak, outputs)

    def test_workspace_does_not_grow_with_flush_size(self):
        config = FeatureConfig()
        signals = [_signal(14400, seed=i) for i in range(32)]
        sizes = []

        def extract():
            for size in (2, 32):
                extract_feature_matrix_batch(signals[:size], config)
                sizes.append(features_module._workspace().nbytes)

        # A fresh thread starts from an empty workspace.
        thread = threading.Thread(target=extract)
        thread.start()
        thread.join()
        assert len(sizes) == 2
        assert sizes[0] == sizes[1] > 0

    def test_workspace_is_per_thread(self):
        workspaces = []

        def grab():
            workspaces.append(features_module._workspace())

        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert workspaces[0] is not features_module._workspace()
