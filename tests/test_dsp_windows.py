"""Tests for repro.dsp.windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.windows import (
    frame_signal,
    frame_signal_batch,
    hamming_window,
    hann_window,
    padded_length,
)


class TestWindows:
    def test_hann_endpoints_and_peak(self):
        w = hann_window(64)
        assert w[0] == pytest.approx(0.0)
        assert w.max() == pytest.approx(1.0, abs=1e-3)

    def test_hamming_floor(self):
        w = hamming_window(64)
        assert w.min() == pytest.approx(0.08, abs=1e-3)
        assert w.max() <= 1.0

    def test_length_one(self):
        assert hann_window(1).tolist() == [1.0]
        assert hamming_window(1).tolist() == [1.0]

    @pytest.mark.parametrize("factory", [hann_window, hamming_window])
    def test_invalid_length_raises(self, factory):
        with pytest.raises(ValueError):
            factory(0)

    def test_hann_symmetry(self):
        w = hann_window(128)
        # Periodic window: w[k] == w[N-k] for k >= 1.
        assert np.allclose(w[1:], w[1:][::-1])


class TestFrameSignal:
    def test_exact_fit_no_padding(self):
        frames = frame_signal(np.arange(10.0), 5, 5)
        assert frames.shape == (2, 5)
        assert frames[1, 0] == 5.0

    def test_overlapping_frames(self):
        frames = frame_signal(np.arange(8.0), 4, 2)
        assert frames.shape[1] == 4
        assert frames[1].tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_padding_covers_tail(self):
        signal = np.ones(7)
        frames = frame_signal(signal, 4, 4, pad=True)
        assert frames.shape == (2, 4)
        assert frames[1].tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_no_padding_drops_tail(self):
        frames = frame_signal(np.ones(7), 4, 4, pad=False)
        assert frames.shape == (1, 4)

    def test_short_signal_no_pad_empty(self):
        frames = frame_signal(np.ones(3), 4, 2, pad=False)
        assert frames.shape == (0, 4)

    def test_empty_signal(self):
        assert frame_signal(np.array([]), 4, 2).shape == (0, 4)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            frame_signal(np.ones((3, 3)), 2, 1)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            frame_signal(np.ones(8), 0, 1)
        with pytest.raises(ValueError):
            frame_signal(np.ones(8), 4, 0)

    @given(
        n=st.integers(1, 200),
        frame=st.integers(1, 32),
        hop=st.integers(1, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_all_samples_covered_with_padding(self, n, frame, hop):
        signal = np.arange(1.0, n + 1.0)
        frames = frame_signal(signal, frame, hop, pad=True)
        needed = (frames.shape[0] - 1) * hop + frame
        assert needed >= n
        # Reconstruct: sample k appears at frame k // hop (first frame that
        # contains it) when hop <= frame.
        if hop <= frame:
            flattened = set()
            for i in range(frames.shape[0]):
                for j in range(frame):
                    value = frames[i, j]
                    if value > 0:
                        flattened.add(value)
            assert flattened == set(signal.tolist())


class TestFrameSignalBatch:
    @given(
        n=st.integers(1, 120),
        frame=st.integers(1, 32),
        hop=st.integers(1, 32),
        batch=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_stacked_frame_signal(self, n, frame, hop,
                                                   batch):
        rng = np.random.default_rng(n)
        signals = [rng.standard_normal(n) for _ in range(batch)]
        expected = np.stack([frame_signal(s, frame, hop) for s in signals])
        # Reused buffers hold stale data, so the padded tail must be
        # zeroed on every call.
        padded = np.full((batch, padded_length(n, frame, hop)), np.nan)
        out = np.full(expected.shape, np.nan)
        framed = frame_signal_batch(signals, frame, hop, out=out,
                                    padded=padded)
        assert framed is out
        assert np.array_equal(framed, expected)
        stacked = frame_signal_batch(np.stack(signals), frame, hop)
        assert np.array_equal(stacked, expected)

    def test_rejects_bad_input_and_buffers(self):
        with pytest.raises(ValueError):
            frame_signal_batch(np.ones(8), 4, 2)
        with pytest.raises(ValueError):
            frame_signal_batch([np.ones(8), np.ones(7)], 4, 2)
        with pytest.raises(ValueError):
            frame_signal_batch([np.ones(8)], 4, 2, padded=np.empty((1, 4)))
        with pytest.raises(ValueError):
            frame_signal_batch([np.ones(8)], 4, 2, out=np.empty((1, 2, 4)))
