"""Content-addressed chunking of serialized checkpoint payloads.

Delta checkpoints hinge on one observation: consecutive epochs of the same
run serialize to *mostly* the same bytes (a fine-tuned head atop frozen
features, an optimizer whose buffers converged, a model that stopped
improving).  Splitting each payload into content-addressed chunks and
storing only the chunks whose digest is new turns that byte-level overlap
into storage savings — the sub-object granularity lever the LSM/survey
storage literature applies to write amplification.

``FlorConfig.chunking`` picks between two layouts: ``"fixed"`` splits
every segment into ``chunk_nbytes`` slices — O(1) planning, and because the
serializer restarts segments at tensor boundaries
(:func:`~repro.storage.serializer.payload_segments`), an unchanged tensor
produces byte-identical chunks across epochs even when its neighbours
changed length — and ``"off"`` keeps the payload as one chunk.  Runs of
tiny segments (pickle heads, scalar optimizer state) coalesce, so a
checkpoint never shatters into confetti-sized blobs.

Older versions also cut content-defined (``"cdc"``) chunks.  Their recipes
still read: a recipe is a list of chunk digests whatever cut them, so the
read path needs no chunker.
"""

from __future__ import annotations

from ..exceptions import StorageError

__all__ = ["CHUNKING_MODES", "DEFAULT_CHUNK_NBYTES", "chunk_payload",
           "chunk_spans"]

#: Chunking modes accepted by the configuration layer.
CHUNKING_MODES = ("off", "fixed")

#: Default target chunk size (256 KiB): large enough that recipe rows and
#: per-chunk hashing stay cheap, small enough that one changed tensor slice
#: does not re-store a whole checkpoint.
DEFAULT_CHUNK_NBYTES = 1 << 18

#: Segments under ``chunk_nbytes // _COALESCE_DIVISOR`` bytes coalesce.
_COALESCE_DIVISOR = 4


def _coalesce_segments(segments: list[tuple[int, int]],
                       floor: int) -> list[tuple[int, int]]:
    """Merge runs of adjacent tiny segments up to ``floor`` bytes.

    Only small segments merge with each other: a segment of ``floor`` or
    more bytes always starts its own group, so a tensor's chunk
    boundaries never shift just because the pickle head (or a scalar
    neighbour) in front of it changed size — that alignment is what lets
    an unchanged tensor dedup across epochs.  A sub-floor group left
    before a large segment stays as one small chunk, which is harmless;
    the floor exists to prevent *runs* of confetti-sized blobs.

    Segments must be contiguous (each starts where the previous ended) —
    true of serializer frames by construction.
    """
    merged: list[tuple[int, int]] = []
    for offset, length in segments:
        if merged and merged[-1][1] < floor and length < floor:
            last_offset, last_length = merged[-1]
            if last_offset + last_length != offset:
                raise StorageError("payload segments are not contiguous")
            merged[-1] = (last_offset, last_length + length)
        else:
            merged.append((offset, length))
    return merged


def chunk_spans(data, *, mode: str = "fixed",
                chunk_nbytes: int = DEFAULT_CHUNK_NBYTES,
                segments: list[tuple[int, int]] | None = None
                ) -> list[tuple[int, int]]:
    """Plan chunk ``(offset, length)`` spans over ``data``.

    ``segments`` (from :func:`~repro.storage.serializer.payload_segments`)
    restart chunk boundaries, so chunking is per-tensor rather than
    per-payload; ``None`` treats the payload as one segment.  Spans cover
    the payload exactly, in order; an empty payload has no chunks.
    """
    if mode not in CHUNKING_MODES:
        raise StorageError(f"chunking mode must be one of {CHUNKING_MODES}, "
                           f"got {mode!r}")
    if chunk_nbytes < 1:
        raise StorageError(
            f"chunk_nbytes must be >= 1, got {chunk_nbytes}")
    view = memoryview(data)
    n = len(view)
    if n == 0:
        return []
    if mode == "off":
        # The store writes an unchunked payload whole without planning
        # spans; ``mode="off"`` is kept for perfbench's layer pass; drop
        # with that call.
        return [(0, n)]
    if segments is None:
        segments = [(0, n)]
    segments = _coalesce_segments(
        [seg for seg in segments if seg[1] > 0],
        max(1, chunk_nbytes // _COALESCE_DIVISOR))
    return [(offset + start, min(chunk_nbytes, length - start))
            for offset, length in segments
            for start in range(0, length, chunk_nbytes)]


def chunk_payload(data, *, mode: str = "fixed",
                  chunk_nbytes: int = DEFAULT_CHUNK_NBYTES,
                  segments: list[tuple[int, int]] | None = None
                  ) -> list[memoryview]:
    """Chunk ``data`` into zero-copy views (see :func:`chunk_spans`)."""
    view = memoryview(data)
    return [view[offset:offset + length]
            for offset, length in chunk_spans(
                view, mode=mode, chunk_nbytes=chunk_nbytes,
                segments=segments)]
