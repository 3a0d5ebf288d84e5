"""Checkpoint payload encoding: gzip, or raw framing when gzip cannot pay.

Table 4 reports gzip-compressed checkpoint sizes; the store compresses
payloads with the same codec before they hit disk (and before the
simulated S3 spool), so measured sizes here play the same role as in the
paper.

Every encoded payload is *framed*: a 4-byte magic plus a one-byte codec
id precede the codec's output, so :func:`decompress` dispatches by id
instead of sniffing codec magics.  :func:`compress` writes two frames,
``gzip`` (id 1) and ``raw`` (id 0, framing only).  Older versions could
also write ``zlib`` (id 2) and ``lzma`` (id 3) frames; those, bare gzip
from pre-frame runs (recognized by the gzip magic) and unframed payloads
(passed through untouched) all still decode.

:func:`compress` is content-aware: float tensor bytes are close to
incompressible (gzip-6 saves ~7 % of float32 weights at ~28 MB/s), so a
cheap sample decides per call whether gzip runs or the bytes are framed
``raw``.  The decision is a pure function of the bytes — no clock, no
per-process state — because the whole-payload path content-addresses the
*encoded* bytes.
"""

from __future__ import annotations

import gzip
import lzma
import zlib
from dataclasses import dataclass

from ..exceptions import StorageError

__all__ = ["CompressionResult", "CODEC_IDS", "CODEC_NAMES", "FRAME_MAGIC",
           "codec_of", "compress", "decompress"]

#: Frame prefix of a codec-framed payload: magic + one codec-id byte.
FRAME_MAGIC = b"FLC1"

#: Frame id of every codec a stored payload may carry.  Ids are on-disk
#: format: append, never renumber.
CODEC_IDS = {"raw": 0, "gzip": 1, "zlib": 2, "lzma": 3}

#: Codecs :func:`compress` writes; the others only decode, for older homes.
CODEC_NAMES = ("raw", "gzip")

_DECODERS = {0: lambda data: data, 1: gzip.decompress, 2: zlib.decompress,
             3: lzma.decompress}
_NAMES_BY_ID = {codec_id: name for name, codec_id in CODEC_IDS.items()}

#: gzip level when the caller passes none.
DEFAULT_GZIP_LEVEL = 6

#: The content probe of :func:`compress`.  Inputs under the minimum always
#: run gzip; larger ones are sampled in evenly spaced windows (8 KiB in
#: all: ~3 % of a default 256 KiB chunk) and framed ``raw`` when zlib
#: level 1 saves less than the minimum on the sample.
PROBE_MIN_NBYTES = 16 * 1024
PROBE_WINDOWS = 8
PROBE_WINDOW_NBYTES = 1024
PROBE_MIN_SAVING = 0.10


def codec_of(data: bytes) -> str | None:
    """The codec name a stored payload was framed with.

    ``"gzip"`` for bare pre-frame gzip payloads; ``None`` when the bytes
    are not a recognized compressed format (legacy uncompressed payloads).
    """
    if data[:4] == FRAME_MAGIC and len(data) >= 5:
        return _NAMES_BY_ID.get(data[4])
    if data[:2] == b"\x1f\x8b":
        return "gzip"
    return None


@dataclass
class CompressionResult:
    """Outcome of compressing one payload.

    ``codec`` names the codec the frame carries — ``"raw"`` when the
    content probe bypassed gzip.
    """

    data: bytes
    raw_nbytes: int
    compressed_nbytes: int
    codec: str = "gzip"

    @property
    def ratio(self) -> float:
        """Compression ratio (raw / compressed); 1.0 for empty payloads."""
        if self.compressed_nbytes == 0:
            return 1.0
        return self.raw_nbytes / self.compressed_nbytes


def _looks_incompressible(view: memoryview) -> bool:
    """Whether a sample of ``view`` says gzip would not pay for itself."""
    if len(view) < PROBE_MIN_NBYTES:
        return False
    stride = (len(view) - PROBE_WINDOW_NBYTES) // (PROBE_WINDOWS - 1)
    sample = b"".join(view[start:start + PROBE_WINDOW_NBYTES]
                      for start in range(0, stride * PROBE_WINDOWS, stride))
    return (len(zlib.compress(sample, 1))
            > (1.0 - PROBE_MIN_SAVING) * len(sample))


def compress(data: bytes, level: int | None = None,
             codec: str = "gzip") -> CompressionResult:
    """Frame ``data`` (any bytes-like), gzip-compressed if it pays.

    The result's ``data`` is ``FRAME_MAGIC + codec_id + <codec output>``;
    ``compressed_nbytes`` counts the whole frame, since that is what hits
    disk.  ``raw`` frames without compressing — 5 bytes of overhead buying
    an unambiguous decode for payloads whose first bytes could collide
    with a codec magic — and is what gzip falls back to when the content
    probe finds the bytes incompressible.  Compressible input, and
    anything under ``PROBE_MIN_NBYTES``, encodes exactly as gzip at
    ``level`` (clamped to 1..9) alone would.  ``codec="raw"`` is kept for
    perfbench's layer pass; drop with that call.
    """
    if codec not in CODEC_NAMES:
        raise StorageError(f"compress writes codecs {CODEC_NAMES}, "
                           f"got {codec!r}")
    view = memoryview(data)
    if codec == "gzip" and _looks_incompressible(view):
        codec = "raw"
    if codec == "gzip":
        # ``mtime=0`` pins the gzip header timestamp: without it the
        # compressed bytes of identical payloads differ run to run, which
        # would defeat content addressing and make payload digests
        # unstable across processes.
        level = DEFAULT_GZIP_LEVEL if level is None else max(1, min(9, level))
        body = gzip.compress(view, compresslevel=level, mtime=0)
    else:
        body = view
    framed = b"".join((FRAME_MAGIC, bytes((CODEC_IDS[codec],)), body))
    return CompressionResult(data=framed, raw_nbytes=len(view),
                             compressed_nbytes=len(framed), codec=codec)


def decompress(data: bytes) -> bytes:
    """Inverse of :func:`compress`, and of every frame older versions wrote.

    Dispatches on the frame's codec id; falls back to the gzip magic for
    payloads from pre-frame runs, and passes anything else through
    (the legacy uncompressed path).  A ``raw`` frame decodes to a
    ``memoryview`` over ``data`` past the frame head, not a copy.
    """
    if data[:4] == FRAME_MAGIC and len(data) >= 5:
        decoder = _DECODERS.get(data[4])
        if decoder is None:
            raise StorageError(
                f"framed payload with unknown codec id {data[4]}")
        try:
            return decoder(memoryview(data)[5:])
        except Exception as exc:
            raise StorageError(
                f"cannot decompress {_NAMES_BY_ID[data[4]]} payload: "
                f"{exc}") from exc
    if data[:2] == b"\x1f\x8b":
        return gzip.decompress(data)
    return data
