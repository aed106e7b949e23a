"""The daemon's wire protocol: newline-delimited JSON frames.

One frame is one JSON object on one line, UTF-8, ``\\n``-terminated —
the simplest protocol a battery-powered sensor client can speak from
any language with a socket and a JSON library, and trivially
inspectable with ``nc`` + ``jq``.  Raw audio/biosignal windows travel
as base64-encoded little-endian ``float32`` so a frame stays a single
JSON line without the 3-4x blowup of a number-per-sample array.

Client → daemon frame types::

    {"type": "hello",  "session": "user-0001", "proto": 1}
    {"type": "window", "seq": 7, "signal": "<base64 f32le>"}
    {"type": "ping",   "t": 123.0}
    {"type": "bye"}

Daemon → client::

    {"type": "welcome",   "session": ..., "proto": 1}
    {"type": "result",    "seq": 7, "outcome": "completed"|"cached"|
                          "absorbed"|"shed", "label": ..., ...}
    {"type": "pong",      "t": 123.0}
    {"type": "preempted", "reason": "capacity"|"takeover", ...}  (then close)
    {"type": "error",     "error": "..."}
    {"type": "goodbye"}

Every ``window`` the client sends is answered by exactly one ``result``
frame — the serve layer's never-silent-drop contract extended over the
wire — unless the connection itself is closed with an explicit
``preempted`` frame first.

:class:`FrameDecoder` owns the byte-stream side: partial-read
reassembly (TCP has no message boundaries), a hard per-frame size cap,
and typed errors (:class:`~repro.errors.ProtocolError` /
:class:`~repro.errors.FrameTooLargeError`) for anything malformed, so a
hostile or broken client can never crash the daemon with garbage bytes.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FrameTooLargeError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.runtime import ServeResult

#: Protocol revision carried in hello/welcome; bumped on breaking change.
PROTOCOL_VERSION = 1

#: Hard cap on one encoded frame (newline included).  1 MiB of base64
#: is ~196k float32 samples — an order of magnitude above the ~2 s
#: 16 kHz windows the pipeline actually consumes.
MAX_FRAME_BYTES = 1 << 20


def encode_frame(frame: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One frame as its wire bytes (compact JSON + newline)."""
    data = json.dumps(frame, separators=(",", ":"), sort_keys=True)
    encoded = data.encode("utf-8") + b"\n"
    if len(encoded) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame of {len(encoded)} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    return encoded


class FrameDecoder:
    """Reassemble frames from an arbitrary chunking of the byte stream.

    Feed whatever ``recv`` returned — half a frame, twenty frames, a
    frame boundary split mid-UTF-8-codepoint — and get back the list of
    complete frames.  Anything that cannot be a frame raises a typed
    error and the decoder stays usable for the connection's error path
    (the daemon replies with an ``error`` frame, then closes):

    - a line that is not valid UTF-8 JSON, or whose JSON is not an
      object → :class:`~repro.errors.ProtocolError`;
    - a line (terminated or still buffering) past ``max_frame_bytes``
      → :class:`~repro.errors.FrameTooLargeError`; the oversized bytes
      are dropped so the buffer cannot grow without bound.

    Blank lines are tolerated as keep-alives.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 2:
            raise ValueError("max_frame_bytes must be >= 2")
        self.max_frame_bytes = max_frame_bytes
        self.frames_decoded = 0
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a newline (partial frame)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every frame it completed."""
        self._buffer.extend(data)
        frames: list[dict] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) >= self.max_frame_bytes:
                    dropped = len(self._buffer)
                    self._buffer.clear()
                    raise FrameTooLargeError(
                        f"unterminated frame grew to {dropped} bytes "
                        f"(cap {self.max_frame_bytes})"
                    )
                return frames
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if newline + 1 > self.max_frame_bytes:
                raise FrameTooLargeError(
                    f"frame of {newline + 1} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte cap"
                )
            if not line.strip():
                continue  # blank keep-alive line
            try:
                frame = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame: {exc}") from exc
            if not isinstance(frame, dict):
                raise ProtocolError(
                    f"frame must be a JSON object, got {type(frame).__name__}"
                )
            self.frames_decoded += 1
            frames.append(frame)

    def reset(self) -> None:
        """Drop any buffered partial frame (connection teardown)."""
        self._buffer.clear()


# -- signal payloads ---------------------------------------------------------

def encode_signal(signal: np.ndarray) -> str:
    """A 1-D signal as base64 little-endian float32 (JSON-safe)."""
    samples = np.ascontiguousarray(signal, dtype="<f4")
    return base64.b64encode(samples.tobytes()).decode("ascii")


def decode_signal(payload: object) -> np.ndarray:
    """The inverse of :func:`encode_signal`, hardened against garbage.

    Returns a float64 window (what the DSP front end consumes); any
    malformed payload raises :class:`~repro.errors.ProtocolError` —
    never an uncaught codec exception.
    """
    if not isinstance(payload, str) or not payload:
        raise ProtocolError("signal must be a non-empty base64 string")
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"signal is not valid base64: {exc}") from exc
    if not raw or len(raw) % 4:
        raise ProtocolError(
            f"signal payload of {len(raw)} bytes is not a float32 array"
        )
    signal = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.isfinite(signal).all():
        # Non-finite samples are a sensor fault, not a request: reject at
        # the wire (the repo-wide SensorError contract) instead of letting
        # NaNs ride into the batched DSP pass and degrade a whole flush.
        raise ProtocolError("signal contains non-finite samples")
    return signal


# -- frame constructors and validators ---------------------------------------

def hello_frame(session_id: str) -> dict:
    return {"type": "hello", "session": session_id,
            "proto": PROTOCOL_VERSION}


def window_frame(seq: int, signal: np.ndarray) -> dict:
    return {"type": "window", "seq": seq, "signal": encode_signal(signal)}


def result_frame(result: "ServeResult", seq: int) -> dict:
    """One :class:`~repro.serve.runtime.ServeResult` as the reply frame
    to the client's window ``seq``."""
    return {
        "type": "result",
        "seq": seq,
        "outcome": result.outcome,
        "label": result.label,
        "emotion": result.emotion,
        "mode": result.mode,
        "shed": result.shed,
        "degraded": result.degraded,
        "cached": result.cached,
        "tier": result.tier,
        "latency_s": result.latency_s,
    }


def parse_hello(frame: dict) -> str:
    """Validate a hello frame; returns the session id."""
    if frame.get("type") != "hello":
        raise ProtocolError(
            f"expected a hello frame, got {frame.get('type')!r}"
        )
    session_id = frame.get("session")
    if not isinstance(session_id, str) or not session_id:
        raise ProtocolError("hello frame carries no session id")
    proto = frame.get("proto", PROTOCOL_VERSION)
    if proto != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {proto!r} unsupported "
            f"(daemon speaks {PROTOCOL_VERSION})"
        )
    return session_id


def parse_window(frame: dict) -> tuple[int, np.ndarray]:
    """Validate a window frame; returns ``(seq, signal)``."""
    seq = frame.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError(f"window frame carries bad seq {seq!r}")
    return seq, decode_signal(frame.get("signal"))
