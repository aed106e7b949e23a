"""End-to-end affect classification pipeline.

Mirrors the paper's deployment path (Fig. 2 / Fig. 4): raw signal ->
feature extraction on the phone -> "neural engine" classifier -> emotion
label consumed by the system-management policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.corpora import Corpus
from repro.dsp.features import (
    FeatureConfig,
    extract_feature_matrix,
    extract_feature_matrix_batch,
)
from repro.errors import ClassifierNotFitError
from repro.nn.metrics import confusion_matrix
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantization import QuantizedModel, quantize_model
from repro.obs import Timer
from repro.affect.model_zoo import ModelConfig, build_model, fast_config


@dataclass
class TrainedClassifier:
    """A trained model plus the normalization and label metadata it needs."""

    model: Sequential
    mean: np.ndarray
    std: np.ndarray
    label_names: tuple[str, ...]
    n_frames: int
    feature_config: FeatureConfig

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """Apply the training normalization to a feature batch."""
        return (features - self.mean) / self.std

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Predict integer labels for a normalized feature batch."""
        return self.model.predict(x)


class AffectClassifierPipeline:
    """Train and serve an affect classifier on a feature corpus.

    Parameters
    ----------
    architecture:
        One of ``"mlp"``, ``"cnn"``, ``"lstm"``.
    config:
        Layer-size configuration; defaults to the fast CI config.
    """

    def __init__(
        self,
        architecture: str = "lstm",
        config: ModelConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.architecture = architecture
        self.config = config or fast_config()
        self.seed = seed
        self.classifier: TrainedClassifier | None = None
        self._quantized: QuantizedModel | None = None

    def train(
        self,
        corpus: Corpus,
        epochs: int = 25,
        batch_size: int = 32,
        lr: float = 3e-3,
        test_fraction: float = 0.3,
    ) -> dict[str, float]:
        """Train on a stratified split; returns train/test accuracy."""
        with Timer("affect.pipeline.train_s"):
            x_train, y_train, x_test, y_test = corpus.split(
                test_fraction=test_fraction, seed=self.seed
            )
            mean = x_train.mean(axis=(0, 1), keepdims=False)
            std = x_train.std(axis=(0, 1), keepdims=False) + 1e-8
            x_train_n = (x_train - mean) / std
            x_test_n = (x_test - mean) / std
            model = build_model(
                self.architecture,
                input_shape=x_train.shape[1:],
                n_classes=corpus.n_classes,
                config=self.config,
                seed=self.seed,
            )
            model.optimizer = Adam(lr, clipnorm=5.0)
            model.fit(x_train_n, y_train, epochs=epochs, batch_size=batch_size,
                      seed=self.seed)
            self.classifier = TrainedClassifier(
                model=model,
                mean=mean,
                std=std,
                label_names=corpus.label_names,
                n_frames=x_train.shape[1],
                feature_config=corpus.feature_config,
            )
            self._quantized = None
            return {
                "train_accuracy": model.evaluate(x_train_n, y_train),
                "test_accuracy": model.evaluate(x_test_n, y_test),
            }

    def _require_trained(self) -> TrainedClassifier:
        if self.classifier is None:
            raise ClassifierNotFitError("pipeline has not been trained")
        return self.classifier

    def prepare_waveform(self, signal: np.ndarray) -> np.ndarray:
        """Extract, normalize, and pad one signal to the model's frame count.

        Padding happens *after* normalization, so padded frames sit at
        zero — the training mean — instead of the out-of-distribution
        ``(0 - mean) / std`` rows that pre-normalization zero-padding
        would produce (the training corpora truncate to the minimum frame
        count and never contain padded rows).
        """
        clf = self._require_trained()
        features = extract_feature_matrix(signal, clf.feature_config)
        n = clf.n_frames
        x = clf.normalize(features[:n])
        if x.shape[0] < n:
            x = np.pad(x, ((0, n - x.shape[0]), (0, 0)))
        return x

    def prepare_waveforms(self, signals: list[np.ndarray]) -> np.ndarray:
        """Batched :meth:`prepare_waveform`: one DSP pass over all signals.

        Feature extraction runs through the vectorized batch front end
        (:func:`~repro.dsp.features.extract_feature_matrix_batch`, which
        frames and FFTs every window together), then each row gets the
        identical normalize/truncate/pad treatment as the single path —
        the batch-vs-single parity gate in the serve bench holds this to
        :meth:`prepare_waveform` per signal.  Returns a
        ``(n_signals, n_frames, n_features)`` stack.
        """
        clf = self._require_trained()
        n = clf.n_frames
        n_features = clf.mean.shape[-1]
        if not signals:
            return np.empty((0, n, n_features))
        features = extract_feature_matrix_batch(signals, clf.feature_config)
        rows = np.zeros((len(signals), n, n_features))
        for i, matrix in enumerate(features):
            x = clf.normalize(matrix[:n])
            rows[i, : x.shape[0]] = x
        return rows

    def classify_waveform(self, signal: np.ndarray) -> str:
        """Classify one raw audio signal into an emotion-label string."""
        return str(self.classify_waveforms([signal])[0])

    def classify_waveforms(self, signals: list[np.ndarray]) -> np.ndarray:
        """Classify many raw signals in one batched model call.

        Feature rows are prepared per signal, stacked, and submitted to a
        single ``predict`` — the per-call overhead of the forward pass is
        amortised across the batch instead of paid once per window (the
        micro-batching serving runtime in :mod:`repro.serve` relies on
        this path).  Returns an array of emotion-label strings aligned
        with ``signals``.
        """
        clf = self._require_trained()
        if not signals:
            return np.empty(0, dtype=object)
        with Timer("affect.pipeline.classify_s"):
            x = self.prepare_waveforms(signals)
            labels = clf.model.predict(x)
            return np.array([clf.label_names[int(i)] for i in labels])

    def classify_features(self, x: np.ndarray) -> np.ndarray:
        """Classify a raw (unnormalized) feature batch into label indices."""
        clf = self._require_trained()
        return clf.model.predict(clf.normalize(x))

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a raw feature batch."""
        clf = self._require_trained()
        return clf.model.evaluate(clf.normalize(x), y)

    def confusion(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Confusion matrix on a raw feature batch."""
        clf = self._require_trained()
        preds = clf.model.predict(clf.normalize(x))
        return confusion_matrix(y, preds, n_classes=len(clf.label_names))

    def quantize(self) -> QuantizedModel:
        """Int8-quantize the trained model (cached)."""
        clf = self._require_trained()
        if self._quantized is None:
            self._quantized = quantize_model(clf.model)
        return self._quantized

    def evaluate_quantized(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the int8 model on a raw feature batch."""
        clf = self._require_trained()
        return self.quantize().evaluate(clf.normalize(x), y)
