"""Checkpoint payload serialization.

A Loop End Checkpoint is a mapping from variable names to *snapshots* of
their values.  Objects that expose the ``state_dict`` protocol (torchlike
modules, optimizers and schedulers) are snapshotted through it; bare
``np.ndarray`` values are snapshotted as array copies; everything else is
pickled once at capture time — pickling already copies, so there is no
separate deepcopy pass, and a value mutated between capture and the spool's
background write can no longer corrupt the payload.

Serialized checkpoints use a framed format (``FLS2``) built on pickle
protocol 5: ndarray leaves travel as out-of-band buffers appended after the
pickle head, so large tensors go straight to chunkable bytes with no pickle
detour, and :func:`payload_segments` exposes the buffer boundaries so the
chunker can restart content-defined boundaries per tensor.
:func:`deserialize_checkpoint` reads both the frame and legacy (plain
pickle) payloads.
"""

from __future__ import annotations

import copy
import pickle
import struct
from dataclasses import dataclass

import numpy as np

from ..exceptions import SerializationError
from ..telemetry import get_tracer
from ..utils.timing import monotonic

__all__ = ["ValueSnapshot", "SerializedCheckpoint", "snapshot_value",
           "restore_value", "serialize_checkpoint", "deserialize_checkpoint",
           "payload_segments"]

#: Snapshot kinds, recorded so restore knows how to apply the payload.
KIND_STATE_DICT = "state_dict"
KIND_PICKLE = "pickle"
KIND_ARRAY = "array"

#: Magic of the framed serialized-checkpoint format (v2).
SERIALIZED_MAGIC = b"FLS2"

#: Frame head: magic + uint32 pickle-head length + uint32 buffer count.
_FRAME_HEAD = struct.Struct("<4sII")

_UNSET = object()


class ValueSnapshot:
    """A serializable snapshot of one variable in a checkpoint.

    Pickle-kind snapshots hold their value as capture-time pickled bytes;
    ``payload`` lazily decodes (and caches) the value, so tests and tools
    that inspect snapshots see the familiar object while the stored form
    is immutable from the moment of capture.
    """

    def __init__(self, name: str, kind: str, payload=_UNSET, *,
                 pickled: bytes | None = None):
        self.name = name
        self.kind = kind
        self._nbytes: int | None = None
        if pickled is not None:
            self._pickled: bytes | None = pickled
            self._payload = _UNSET
            return
        if payload is _UNSET:
            raise SerializationError(
                f"snapshot {name!r} needs a payload or pickled bytes")
        if kind == KIND_PICKLE:
            try:
                self._pickled = pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise SerializationError(
                    f"value {name!r} of type {type(payload).__name__} "
                    f"cannot be checkpointed: {exc}") from exc
            self._payload = _UNSET
        else:
            self._pickled = None
            self._payload = payload

    @property
    def payload(self):
        """The snapshotted value (decoded lazily for pickle-kind)."""
        if self._payload is _UNSET:
            self._payload = pickle.loads(self._pickled)
        return self._payload

    def fresh_payload(self):
        """A copy of the value safe to hand to the caller to mutate."""
        if self._pickled is not None:
            return pickle.loads(self._pickled)
        return copy.deepcopy(self.payload)

    def nbytes(self) -> int:
        """Size of this snapshot in bytes (computed once, then cached)."""
        if self._nbytes is None:
            self._nbytes = self._measure()
        return self._nbytes

    def _measure(self) -> int:
        if self._pickled is not None:
            return len(self._pickled)
        payload = self.payload
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        if isinstance(payload, dict):
            return sum(_leaf_nbytes(value) for value in _flatten(payload))
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    # -- pickling (the FLS2 head pickles snapshots themselves) ------------
    def __getstate__(self):
        if self._pickled is not None:
            return {"name": self.name, "kind": self.kind,
                    "pickled": self._pickled}
        return {"name": self.name, "kind": self.kind, "payload": self.payload}

    def __setstate__(self, state):
        self.name = state["name"]
        self.kind = state["kind"]
        self._nbytes = None
        if "pickled" in state:
            self._pickled = state["pickled"]
            self._payload = _UNSET
        else:
            # Also the legacy decode path: pre-frame checkpoints pickled
            # the old dataclass, whose state is {name, kind, payload}.
            self._pickled = None
            self._payload = state["payload"]

    def __repr__(self):
        return (f"ValueSnapshot(name={self.name!r}, kind={self.kind!r}, "
                f"nbytes={self.nbytes()})")


def _leaf_nbytes(value) -> int:
    """Honest size of one state-dict leaf."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (bool, int, float, complex, type(None))):
        return 8
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _flatten(mapping: dict):
    for value in mapping.values():
        if isinstance(value, dict):
            yield from _flatten(value)
        else:
            yield value


@dataclass
class SerializedCheckpoint:
    """A fully serialized checkpoint ready to be written to disk."""

    data: bytes
    nbytes: int
    serialize_seconds: float


def snapshot_value(name: str, value) -> ValueSnapshot:
    """Snapshot one Python value.

    Objects with a ``state_dict()`` method are captured through it — this is
    the "lean" part of lean checkpointing: for a model we keep arrays of
    weights, not the full object graph of the module tree.  Bare ndarrays
    are copied (buffer-protocol serialization needs no pickle); everything
    else is pickled once, right here, so later mutation of the live value
    cannot reach the snapshot.
    """
    state_dict = getattr(value, "state_dict", None)
    if callable(state_dict):
        return ValueSnapshot(name=name, kind=KIND_STATE_DICT,
                             payload=state_dict())
    if isinstance(value, np.ndarray):
        return ValueSnapshot(name=name, kind=KIND_ARRAY,
                             payload=np.array(value, copy=True))
    return ValueSnapshot(name=name, kind=KIND_PICKLE, payload=value)


def restore_value(snapshot: ValueSnapshot, live_value=None):
    """Apply a snapshot.

    If ``live_value`` supports ``load_state_dict`` and the snapshot is a
    state dict, the restoration happens *in place* (the paper's side-effect
    restoration) and ``live_value`` is returned.  Otherwise a fresh copy of
    the snapshotted value is returned for the caller to rebind.
    """
    if snapshot.kind == KIND_STATE_DICT and live_value is not None:
        loader = getattr(live_value, "load_state_dict", None)
        if callable(loader):
            loader(snapshot.payload)
            return live_value
    if snapshot.kind == KIND_ARRAY:
        # Deserialized arrays may be read-only views into the payload
        # buffer; the caller gets a writable copy.
        return np.array(snapshot.payload, copy=True)
    return snapshot.fresh_payload()


def _collect_buffer(buffers: list, pickle_buffer) -> bool:
    """Protocol-5 buffer callback: out-of-band when contiguous."""
    try:
        buffers.append(pickle_buffer.raw())
    except BufferError:
        return True  # non-contiguous: keep it in-band
    return False


def serialize_checkpoint(snapshots: list["ValueSnapshot"]
                         ) -> SerializedCheckpoint:
    """Serialize snapshots into one framed byte payload, timing the work.

    ndarray leaves leave the pickle stream as out-of-band protocol-5
    buffers, concatenated after the pickle head::

        FLS2 | u32 head_len | u32 nbuffers | nbuffers * u64 buf_len
             | head | buffer_0 | ... | buffer_{n-1}

    The single ``b"".join`` is the only copy of the tensor bytes on this
    path (the seed pickled a deepcopy — two copies per tensor).
    """
    start = monotonic()
    with get_tracer().span("storage.serialize",
                           values=len(snapshots)) as span:
        buffers: list = []
        try:
            head = pickle.dumps(snapshots, protocol=5,
                                buffer_callback=lambda pb:
                                _collect_buffer(buffers, pb))
        except Exception as exc:
            raise SerializationError(
                f"cannot serialize checkpoint: {exc}") from exc
        lengths = struct.pack(f"<{len(buffers)}Q",
                              *(len(memoryview(buffer)) for buffer in buffers))
        data = b"".join([_FRAME_HEAD.pack(SERIALIZED_MAGIC, len(head),
                                          len(buffers)), lengths, head,
                         *buffers])
        span.set(nbytes=len(data))
    elapsed = monotonic() - start
    return SerializedCheckpoint(data=data, nbytes=len(data),
                                serialize_seconds=elapsed)


def _parse_frame(data) -> tuple[memoryview, list[memoryview]]:
    """Split an FLS2 payload into pickle-head and buffer views (no copy)."""
    view = memoryview(data)
    try:
        magic, head_len, nbuffers = _FRAME_HEAD.unpack_from(view, 0)
        offset = _FRAME_HEAD.size
        lengths = struct.unpack_from(f"<{nbuffers}Q", view, offset)
        offset += 8 * nbuffers
        head = view[offset:offset + head_len]
        if len(head) != head_len:
            raise ValueError("truncated pickle head")
        offset += head_len
        buffers: list[memoryview] = []
        for length in lengths:
            buffer = view[offset:offset + length]
            if len(buffer) != length:
                raise ValueError("truncated buffer section")
            buffers.append(buffer)
            offset += length
        if offset != len(view):
            raise ValueError(f"{len(view) - offset} trailing bytes")
    except (struct.error, ValueError) as exc:
        raise SerializationError(
            f"corrupt framed checkpoint payload: {exc}") from exc
    return head, buffers


def payload_segments(data) -> list[tuple[int, int]]:
    """``(offset, length)`` spans of a serialized payload's natural parts.

    For framed payloads: one span for the frame header + pickle head, then
    one per out-of-band buffer.  Chunkers restart boundaries at these
    offsets so a tensor whose neighbours changed length still produces the
    same chunks (and therefore dedups) across epochs.  Legacy payloads are
    a single span.
    """
    view = memoryview(data)
    if bytes(view[:4]) != SERIALIZED_MAGIC:
        return [(0, len(view))] if len(view) else []
    try:
        _, head_len, nbuffers = _FRAME_HEAD.unpack_from(view, 0)
        lengths = struct.unpack_from(f"<{nbuffers}Q", view, _FRAME_HEAD.size)
    except struct.error as exc:
        raise SerializationError(
            f"corrupt framed checkpoint payload: {exc}") from exc
    segments = [(0, _FRAME_HEAD.size + 8 * nbuffers + head_len)]
    offset = segments[0][1]
    for length in lengths:
        segments.append((offset, length))
        offset += length
    return segments


def deserialize_checkpoint(data: bytes) -> list[ValueSnapshot]:
    """Inverse of :func:`serialize_checkpoint` (frame or legacy pickle).

    Frame buffers are handed to pickle as zero-copy views into ``data``;
    deserialized arrays may therefore be read-only — ``restore_value``
    and ``load_state_dict`` copy on apply.
    """
    if bytes(memoryview(data)[:4]) == SERIALIZED_MAGIC:
        head, buffers = _parse_frame(data)
        try:
            snapshots = pickle.loads(head, buffers=buffers)
        except Exception as exc:
            raise SerializationError(
                f"cannot deserialize checkpoint: {exc}") from exc
    else:
        try:
            snapshots = pickle.loads(data)
        except Exception as exc:
            raise SerializationError(
                f"cannot deserialize checkpoint: {exc}") from exc
    if not isinstance(snapshots, list):
        raise SerializationError(
            f"corrupt checkpoint payload: expected list, got {type(snapshots)}")
    return snapshots
