"""Pluggable compression codecs for checkpoint payloads.

Table 4 reports gzip-compressed checkpoint sizes; the store compresses
payloads with the same codec family before they hit disk (and before the
simulated S3 spool), so measured sizes here play the same role as in the
paper.  Beyond gzip, the registry carries a no-op ``raw`` codec and the
stdlib ``zlib``/``lzma`` alternatives.

Every compressed payload is *framed*: a 4-byte magic plus a one-byte codec
id precede the codec's output, so :func:`decompress` dispatches by id
instead of sniffing codec magics.  Pre-frame payloads (bare gzip from
earlier runs) are still recognized by the gzip magic, and anything else
passes through untouched — the store's legacy uncompressed path.

:func:`compress` is content-aware: float tensor bytes are close to
incompressible (gzip-6 saves ~7 % of float32 weights at ~28 MB/s), so a
cheap sample decides per call whether the configured codec runs or the
bytes are framed ``raw``.  The decision is a pure function of the bytes —
no clock, no per-process state — because the whole-payload path
content-addresses the *encoded* bytes.
"""

from __future__ import annotations

import gzip
import lzma
import zlib
from dataclasses import dataclass

from ..exceptions import StorageError

__all__ = ["CompressionResult", "Codec", "CODEC_NAMES", "FRAME_MAGIC",
           "get_codec", "codec_of", "compress", "decompress",
           "compression_ratio"]

#: Frame prefix of a codec-framed payload: magic + one codec-id byte.
FRAME_MAGIC = b"FLC1"

#: The content probe of :func:`compress`.  Inputs under the minimum always
#: run the configured codec; larger ones are sampled in evenly spaced
#: windows (8 KiB in all: ~3 % of a default 256 KiB chunk) and framed
#: ``raw`` when zlib level 1 saves less than the minimum on the sample.
PROBE_MIN_NBYTES = 16 * 1024
PROBE_WINDOWS = 8
PROBE_WINDOW_NBYTES = 1024
PROBE_MIN_SAVING = 0.10


@dataclass(frozen=True)
class Codec:
    """One registered compression codec.

    ``codec_id`` is the frame byte — part of the on-disk format, never
    reused.  ``default_level`` feeds ``encode`` when the caller passes no
    level; levels are clamped into the codec's valid range so one knob
    (``FlorConfig.codec_level``) serves every codec.
    """

    name: str
    codec_id: int
    default_level: int

    def encode(self, data: bytes, level: int | None = None) -> bytes:
        level = self.default_level if level is None else max(0, min(9, level))
        if self.name == "raw":
            return data
        if self.name == "gzip":
            # ``mtime=0`` pins the gzip header timestamp: without it the
            # compressed bytes of identical payloads differ run to run,
            # which would defeat content-addressed dedup and make payload
            # digests unstable across processes.
            return gzip.compress(data, compresslevel=max(level, 1), mtime=0)
        if self.name == "zlib":
            return zlib.compress(data, level=level)
        if self.name == "lzma":
            return lzma.compress(data, preset=level)
        raise StorageError(f"codec {self.name!r} has no encoder")

    def decode(self, data: bytes) -> bytes:
        if self.name == "raw":
            return data
        if self.name == "gzip":
            return gzip.decompress(data)
        if self.name == "zlib":
            return zlib.decompress(data)
        if self.name == "lzma":
            return lzma.decompress(data)
        raise StorageError(f"codec {self.name!r} has no decoder")


#: The codec registry.  Ids are on-disk format; append, never renumber.
_CODECS = (
    Codec(name="raw", codec_id=0, default_level=0),
    Codec(name="gzip", codec_id=1, default_level=6),
    Codec(name="zlib", codec_id=2, default_level=6),
    # lzma presets above 1 are far too slow for a record hot path.
    Codec(name="lzma", codec_id=3, default_level=1),
)
_BY_NAME = {codec.name: codec for codec in _CODECS}
_BY_ID = {codec.codec_id: codec for codec in _CODECS}

#: Codec names accepted by the configuration layer.
CODEC_NAMES = tuple(codec.name for codec in _CODECS)


def get_codec(name: str) -> Codec:
    """Look up a codec by registry name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise StorageError(f"unknown codec {name!r}; known codecs: "
                           f"{', '.join(CODEC_NAMES)}") from None


def codec_of(data: bytes) -> str | None:
    """The codec name a stored payload was framed with.

    ``"gzip"`` for bare pre-frame gzip payloads; ``None`` when the bytes
    are not a recognized compressed format (legacy uncompressed payloads).
    """
    if data[:4] == FRAME_MAGIC and len(data) >= 5:
        codec = _BY_ID.get(data[4])
        return codec.name if codec is not None else None
    if data[:2] == b"\x1f\x8b":
        return "gzip"
    return None


@dataclass
class CompressionResult:
    """Outcome of compressing one payload.

    ``codec`` names the codec the frame carries — ``"raw"`` when the
    content probe bypassed the requested one.
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
    """Whether a sample of ``view`` says a codec would not pay for itself."""
    if len(view) < PROBE_MIN_NBYTES:
        return False
    stride = (len(view) - PROBE_WINDOW_NBYTES) // (PROBE_WINDOWS - 1)
    sample = b"".join(view[start:start + PROBE_WINDOW_NBYTES]
                      for start in range(0, stride * PROBE_WINDOWS, stride))
    return (len(zlib.compress(sample, 1))
            > (1.0 - PROBE_MIN_SAVING) * len(sample))


def compress(data: bytes, level: int | None = None,
             codec: str = "gzip") -> CompressionResult:
    """Frame ``data`` (any bytes-like), compressed with ``codec`` if it pays.

    The result's ``data`` is ``FRAME_MAGIC + codec_id + <codec output>``;
    ``compressed_nbytes`` counts the whole frame, since that is what hits
    disk.  ``raw`` frames without compressing — 5 bytes of overhead buying
    an unambiguous decode for payloads whose first bytes could collide
    with a codec magic — and is also what any other codec falls back to
    when the content probe finds the bytes incompressible.  Compressible
    input, and anything under ``PROBE_MIN_NBYTES``, encodes exactly as the
    codec alone would.
    """
    entry = get_codec(codec)
    view = memoryview(data)
    if entry.name != "raw" and _looks_incompressible(view):
        entry = _BY_NAME["raw"]
    framed = b"".join((FRAME_MAGIC, bytes((entry.codec_id,)),
                       entry.encode(view, level)))
    return CompressionResult(data=framed, raw_nbytes=len(view),
                             compressed_nbytes=len(framed), codec=entry.name)


def decompress(data: bytes) -> bytes:
    """Inverse of :func:`compress`.

    Dispatches on the frame's codec id; falls back to the gzip magic for
    payloads from pre-frame runs, and passes anything else through
    (the legacy uncompressed path).  A ``raw`` frame decodes to a
    ``memoryview`` over ``data`` past the frame head, not a copy.
    """
    if data[:4] == FRAME_MAGIC and len(data) >= 5:
        codec = _BY_ID.get(data[4])
        if codec is None:
            raise StorageError(
                f"framed payload with unknown codec id {data[4]}")
        try:
            return codec.decode(memoryview(data)[5:])
        except Exception as exc:
            raise StorageError(
                f"cannot decompress {codec.name} payload: {exc}") from exc
    if data[:2] == b"\x1f\x8b":
        return gzip.decompress(data)
    return data


def compression_ratio(data: bytes, level: int | None = None,
                      codec: str = "gzip") -> float:
    """Convenience: compression ratio achieved on ``data``."""
    return compress(data, level=level, codec=codec).ratio
