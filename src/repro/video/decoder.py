"""Affect-adaptive H.264-like decoder with activity accounting.

The decode path mirrors the paper's Fig. 5: the (optional) Input Selector
deletes non-critical NAL units into the Pre-store Buffer, the Circular
Buffer fetches under a hand-shake, the bitstream parser consumes NAL units,
residuals pass through inverse quantization + inverse transform (IQIT),
intra / inter prediction reconstructs macroblocks, and the Deblocking
Filter (if not deactivated) smooths block edges.  Every stage increments an
activity counter consumed by :mod:`repro.hw.power`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BitstreamError
from repro.video.bitstream import BitReader
from repro.video.buffers import (
    CircularBuffer,
    InputSelector,
    PreStoreBuffer,
    SelectorConfig,
    pump_through_buffers,
)
from repro.video.deblocking import deblock_frame
from repro.video.encoder import build_strength_maps
from repro.video.entropy import EntropyCoder, ExpGolombCoder, coder_from_mode_id
from repro.video.frames import Frame
from repro.obs import Timer, get_registry, get_tracer
from repro.video.nal import NalType, split_nal_units
from repro.video.slice_coding import (
    MB,
    FrameSideInfo,
    PlaneSet,
    read_b_macroblock,
    read_i_macroblock,
    read_p_macroblock,
)


class DecodeError(BitstreamError):
    """Raised when a bitstream cannot be decoded.

    Any malformed input — truncated NAL units, corrupt entropy codes,
    impossible syntax values — surfaces as this single exception type so
    callers can handle bad streams uniformly.  Part of the
    :class:`~repro.errors.ReproError` hierarchy (and still a
    ``ValueError`` for legacy callers).
    """


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder operating mode (the paper's two affect knobs).

    ``error_concealment`` switches the decoder from strict parsing
    (malformed input raises :class:`DecodeError`) to the H.264-style
    concealment an edge deployment wants: corrupt or truncated NAL units
    are skipped and counted, the display assembler repeats the last good
    frame in their place, and :meth:`Decoder.decode` never raises.
    """

    deblock_enabled: bool = True
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    error_concealment: bool = False


@dataclass
class ActivityCounters:
    """Per-module activity measured during one decode."""

    bits_parsed: int = 0
    mbs_intra: int = 0
    mbs_inter: int = 0
    mbs_bi: int = 0
    blocks_total: int = 0
    blocks_nonzero: int = 0
    df_edges: int = 0
    selector_bytes_scanned: int = 0
    selector_units_deleted: int = 0
    selector_bytes_deleted: int = 0
    buffer_words: int = 0
    frames_decoded: int = 0
    frames_concealed: int = 0
    units_corrupt: int = 0

    @property
    def macroblocks(self) -> int:
        """Total macroblocks decoded across all types."""
        return self.mbs_intra + self.mbs_inter + self.mbs_bi


@dataclass
class DecodedVideo:
    """Decode result: display-order frames plus activity and stream stats."""

    frames: list[Frame]
    counters: ActivityCounters
    concealed_indices: list[int]
    input_bytes: int
    decoded_bytes: int


class Decoder:
    """Decode a packed NAL stream produced by :class:`repro.video.Encoder`."""

    def __init__(self, config: DecoderConfig | None = None) -> None:
        self.config = config or DecoderConfig()

    def decode(self, stream: bytes) -> DecodedVideo:
        """Decode a packed NAL stream.

        Raises :class:`DecodeError` on any malformed input — unless the
        config enables ``error_concealment``, in which case corrupt units
        are skipped, counted, and concealed by last-frame repeat.
        """
        try:
            # stage(): nests under whatever request is in flight (and
            # feeds the profiler's per-stage attribution) without
            # minting a root trace for every standalone decode.
            with Timer("video.decoder.decode_s"), \
                    get_tracer().stage("video.decode",
                                       attrs={"input_bytes": len(stream)}):
                result = self._decode(stream)
        except DecodeError:
            get_registry().inc("video.decoder.decode_errors")
            raise
        except (ValueError, EOFError, KeyError, IndexError) as exc:
            get_registry().inc("video.decoder.decode_errors")
            raise DecodeError(f"corrupt bitstream: {exc}") from exc
        self._publish_counters(result)
        return result

    @staticmethod
    def _publish_counters(result: DecodedVideo) -> None:
        """Mirror the per-decode activity counters into the registry."""
        obs = get_registry()
        if not obs.enabled:
            return
        c = result.counters
        obs.inc("video.decoder.decodes")
        obs.inc("video.decoder.frames_decoded", c.frames_decoded)
        obs.inc("video.decoder.frames_concealed", c.frames_concealed)
        obs.inc("video.decoder.units_corrupt", c.units_corrupt)
        obs.inc("video.decoder.macroblocks", c.macroblocks)
        obs.inc("video.decoder.bits_parsed", c.bits_parsed)
        obs.inc("video.decoder.df_edges", c.df_edges)
        obs.inc("video.decoder.selector_units_deleted", c.selector_units_deleted)
        obs.inc("video.decoder.selector_bytes_deleted", c.selector_bytes_deleted)
        obs.inc("video.decoder.input_bytes", result.input_bytes)
        obs.inc("video.decoder.decoded_bytes", result.decoded_bytes)

    def _decode(self, stream: bytes) -> DecodedVideo:
        counters = ActivityCounters()
        conceal = self.config.error_concealment
        units = split_nal_units(stream, on_error="skip" if conceal else "raise")
        selector = InputSelector(self.config.selector)
        kept = selector.filter_units(units)
        counters.selector_bytes_scanned = selector.stats.bytes_scanned
        counters.selector_units_deleted = selector.stats.deleted_units
        counters.selector_bytes_deleted = selector.stats.deleted_bytes

        prestore = PreStoreBuffer()
        circular = CircularBuffer()

        width = height = n_frames = 0
        coder: EntropyCoder = ExpGolombCoder()
        decoded: dict[int, PlaneSet] = {}
        anchors: list[int] = []
        decoded_bytes = 0

        for unit in kept:
            payload, pump = pump_through_buffers(unit.payload, prestore, circular)
            counters.buffer_words += pump.words_to_circular
            decoded_bytes += unit.size_bytes
            try:
                reader = BitReader(payload)
                if unit.nal_type == NalType.SPS:
                    # Parse into locals and validate *before* committing, so
                    # a corrupt SPS concealed away cannot leave partial
                    # (garbage) dimensions behind.
                    sps_w = reader.read_ue()
                    sps_h = reader.read_ue()
                    reader.read_ue()  # gop size (informational)
                    sps_n = reader.read_ue()
                    sps_coder = coder_from_mode_id(reader.read_ue())
                    if not (16 <= sps_w <= 4096 and 16 <= sps_h <= 4096):
                        raise DecodeError(
                            f"implausible dimensions {sps_w}x{sps_h}"
                        )
                    if sps_w % 16 or sps_h % 16:
                        raise DecodeError("dimensions must be macroblock aligned")
                    if sps_n > 100_000:
                        raise DecodeError("implausible frame count")
                    width, height, n_frames, coder = sps_w, sps_h, sps_n, sps_coder
                    counters.bits_parsed += reader.bits_consumed
                    continue
                if width == 0:
                    raise DecodeError("slice NAL before sequence parameters")
                qp = reader.read_ue()
                recon = PlaneSet.blank(height, width)
                info = FrameSideInfo.empty(height, width)
                display = unit.frame_index
                if unit.nal_type == NalType.SLICE_I:
                    self._decode_i(reader, recon, info, qp, height, width, coder)
                    counters.mbs_intra += (height // MB) * (width // MB)
                elif unit.nal_type == NalType.SLICE_P:
                    ref = _nearest_anchor_before(anchors, display, decoded)
                    self._decode_p(reader, recon, ref, info, qp, height, width, coder)
                    counters.mbs_inter += (height // MB) * (width // MB)
                else:
                    fwd = _nearest_anchor_before(anchors, display, decoded)
                    bwd = _nearest_anchor_after(anchors, display, decoded)
                    self._decode_b(
                        reader, recon, fwd, bwd if bwd is not None else fwd,
                        info, qp, height, width, coder,
                    )
                    counters.mbs_bi += (height // MB) * (width // MB)
            except (ValueError, EOFError, KeyError, IndexError):
                if not conceal:
                    raise
                # H.264-style concealment: drop the corrupt unit; the
                # display assembler repeats the last good frame for its
                # index.  A failed slice never reaches ``decoded``.
                counters.units_corrupt += 1
                continue
            counters.bits_parsed += reader.bits_consumed
            counters.blocks_total += info.blocks_decoded
            counters.blocks_nonzero += info.nonzero_blocks
            if self.config.deblock_enabled:
                bs_v, bs_h = build_strength_maps(info)
                filtered, edges = deblock_frame(
                    np.clip(recon.y, 0, 255).astype(np.uint8), bs_v, bs_h, qp
                )
                recon = PlaneSet(
                    y=filtered.astype(np.int64),
                    u=np.clip(recon.u, 0, 255),
                    v=np.clip(recon.v, 0, 255),
                )
                counters.df_edges += edges
            else:
                recon = recon.clipped()
            decoded[display] = recon
            counters.frames_decoded += 1
            if unit.nal_type in (NalType.SLICE_I, NalType.SLICE_P):
                anchors.append(display)
                anchors.sort()

        frames, concealed = _assemble_display_order(decoded, n_frames, height, width)
        counters.frames_concealed = len(concealed)
        return DecodedVideo(
            frames=frames,
            counters=counters,
            concealed_indices=concealed,
            input_bytes=len(stream),
            decoded_bytes=decoded_bytes,
        )

    def _decode_i(self, reader, recon, info, qp, height, width, coder) -> None:
        for mb_row in range(height // MB):
            for mb_col in range(width // MB):
                read_i_macroblock(reader, recon, info, mb_row, mb_col, qp, coder)

    def _decode_p(self, reader, recon, ref, info, qp, height, width, coder) -> None:
        for mb_row in range(height // MB):
            for mb_col in range(width // MB):
                read_p_macroblock(
                    reader, recon, ref, info, mb_row, mb_col, qp, coder
                )

    def _decode_b(
        self, reader, recon, fwd, bwd, info, qp, height, width, coder
    ) -> None:
        for mb_row in range(height // MB):
            for mb_col in range(width // MB):
                read_b_macroblock(
                    reader, recon, fwd, bwd, info, mb_row, mb_col, qp, coder
                )


def _nearest_anchor_before(
    anchors: list[int], display: int, decoded: dict[int, PlaneSet]
) -> PlaneSet:
    candidates = [a for a in anchors if a < display]
    if not candidates:
        raise ValueError(f"no reference available for frame {display}")
    return decoded[max(candidates)]


def _nearest_anchor_after(
    anchors: list[int], display: int, decoded: dict[int, PlaneSet]
) -> PlaneSet | None:
    candidates = [a for a in anchors if a > display]
    return decoded[min(candidates)] if candidates else None


def _assemble_display_order(
    decoded: dict[int, PlaneSet], n_frames: int, height: int, width: int
) -> tuple[list[Frame], list[int]]:
    """Order decoded frames for display, concealing deleted ones.

    A missing display index repeats the nearest earlier decoded frame
    (frame-copy concealment) — this is where the deletion knob's quality
    loss physically appears.
    """
    frames: list[Frame] = []
    concealed: list[int] = []
    last: PlaneSet | None = None
    total = n_frames if n_frames > 0 else (max(decoded) + 1 if decoded else 0)
    for display in range(total):
        planes = decoded.get(display)
        if planes is None:
            concealed.append(display)
            if last is None:
                future = sorted(k for k in decoded if k > display)
                planes = decoded[future[0]] if future else None
            else:
                planes = last
        if planes is None:
            frames.append(Frame.blank(height, width))
            continue
        last = planes
        frames.append(
            Frame(
                np.clip(planes.y, 0, 255).astype(np.uint8),
                np.clip(planes.u, 0, 255).astype(np.uint8),
                np.clip(planes.v, 0, 255).astype(np.uint8),
            )
        )
    return frames, concealed
