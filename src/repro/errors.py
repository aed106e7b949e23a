"""Typed exception hierarchy for the whole reproduction.

Edge deployments treat sensor dropout, model failure, and corrupted
bitstreams as the *common* case (PAPERS.md: AHAR's fallback tiers,
Synheart's on-device pipeline), so callers need to catch precisely:
a truncated NAL unit is recoverable by concealment, an unfit classifier
is a programming error, a transient sensor read wants a retry.

Every class dual-inherits from the builtin exception it historically
surfaced as (``ValueError``, ``RuntimeError``, ``EOFError``), so code
written against the old bare raises keeps working while new code can
catch :class:`ReproError` subclasses selectively.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class BitstreamError(ReproError, ValueError):
    """Malformed video bitstream: bad NAL framing, invalid syntax values,
    impossible exp-Golomb codes."""


class BitstreamEOFError(BitstreamError, EOFError):
    """A bitstream reader ran past the end of its buffer (truncation)."""


class SensorError(ReproError, ValueError):
    """A biosignal / audio input is unusable: non-finite samples,
    dropout, or a failed (possibly transient) sensor read."""


class ClassifierNotFitError(ReproError, RuntimeError):
    """Inference was requested from a classifier that has not been fit."""


class TrainingDataError(ReproError, ValueError):
    """A training set cannot support fitting (e.g. a missing class)."""


class InferenceTimeoutError(ReproError):
    """A per-window inference exceeded its real-time deadline."""


class CircuitOpenError(ReproError):
    """A circuit breaker is open and refused the call."""


class InjectedFault(ReproError):
    """A deliberate failure produced by the fault-injection harness —
    never raised in production paths."""


class SessionEvictedError(ReproError, KeyError):
    """A serving request referenced a session that was evicted (idle TTL
    or LRU capacity) and strict session affinity was requested."""


class ProtocolError(ReproError, ValueError):
    """A daemon wire frame is malformed: undecodable JSON, a non-object
    frame, a bad base64 signal payload, or missing/invalid fields."""


class FrameTooLargeError(ProtocolError):
    """A daemon wire frame exceeded the per-frame size cap."""


__all__ = [
    "ReproError",
    "BitstreamError",
    "BitstreamEOFError",
    "SensorError",
    "ClassifierNotFitError",
    "TrainingDataError",
    "InferenceTimeoutError",
    "CircuitOpenError",
    "InjectedFault",
    "SessionEvictedError",
    "ProtocolError",
    "FrameTooLargeError",
]
