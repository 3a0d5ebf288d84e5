"""Tests for checkpoint serialization and compression."""

from __future__ import annotations

import gzip
import lzma
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import torchlike as tl
from repro.exceptions import SerializationError, StorageError
from repro.storage.compression import (CODEC_IDS, CODEC_NAMES, FRAME_MAGIC,
                                       codec_of, compress, decompress)
from repro.storage.serializer import (KIND_ARRAY, KIND_PICKLE,
                                      KIND_STATE_DICT, SERIALIZED_MAGIC,
                                      ValueSnapshot, deserialize_checkpoint,
                                      payload_segments, restore_value,
                                      serialize_checkpoint, snapshot_value)


class TestSnapshotValue:
    def test_module_snapshotted_via_state_dict(self):
        net = tl.Linear(3, 2, rng=np.random.default_rng(0))
        snapshot = snapshot_value("net", net)
        assert snapshot.kind == KIND_STATE_DICT
        assert set(snapshot.payload) == {"weight", "bias"}

    def test_optimizer_snapshotted_via_state_dict(self):
        net = tl.Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = tl.SGD(net.parameters(), lr=0.1, momentum=0.9)
        snapshot = snapshot_value("optimizer", optimizer)
        assert snapshot.kind == KIND_STATE_DICT
        assert "param_values" in snapshot.payload

    def test_plain_value_snapshotted_via_pickle(self):
        snapshot = snapshot_value("epoch", 7)
        assert snapshot.kind == KIND_PICKLE
        assert snapshot.payload == 7

    def test_snapshot_is_a_deep_copy(self):
        value = {"losses": [1.0, 2.0]}
        snapshot = snapshot_value("history", value)
        value["losses"].append(3.0)
        assert snapshot.payload == {"losses": [1.0, 2.0]}

    def test_nbytes_scales_with_payload(self):
        small = snapshot_value("a", np.zeros(10, dtype=np.float32))
        large = snapshot_value("b", np.zeros(10000, dtype=np.float32))
        assert large.nbytes() > small.nbytes()

    def test_nbytes_of_state_dict(self):
        net = tl.Linear(8, 8, rng=np.random.default_rng(0))
        snapshot = snapshot_value("net", net)
        assert snapshot.nbytes() >= 8 * 8 * 4


class TestRestoreValue:
    def test_state_dict_restored_in_place(self):
        net = tl.Linear(3, 2, rng=np.random.default_rng(0))
        snapshot = snapshot_value("net", net)
        net.weight.data[...] = 0.0
        restored = restore_value(snapshot, net)
        assert restored is net
        assert np.abs(net.weight.data).sum() > 0

    def test_state_dict_without_live_object_returns_copy(self):
        net = tl.Linear(3, 2, rng=np.random.default_rng(0))
        snapshot = snapshot_value("net", net)
        restored = restore_value(snapshot, None)
        assert isinstance(restored, dict)
        assert "weight" in restored

    def test_pickled_value_returned_as_copy(self):
        snapshot = snapshot_value("history", [1, 2, 3])
        restored = restore_value(snapshot)
        assert restored == [1, 2, 3]
        restored.append(4)
        assert snapshot.payload == [1, 2, 3]

    def test_optimizer_restore_resets_params(self):
        net = tl.Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = tl.SGD(net.parameters(), lr=0.5)
        snapshot = snapshot_value("optimizer", optimizer)
        original = net.weight.data.copy()
        net.weight.data[...] = 42.0
        restore_value(snapshot, optimizer)
        np.testing.assert_allclose(net.weight.data, original)


class TestSerializeCheckpoint:
    def test_roundtrip(self):
        net = tl.Linear(4, 4, rng=np.random.default_rng(0))
        snapshots = [snapshot_value("net", net), snapshot_value("epoch", 3)]
        serialized = serialize_checkpoint(snapshots)
        assert serialized.nbytes == len(serialized.data)
        assert serialized.serialize_seconds >= 0
        restored = deserialize_checkpoint(serialized.data)
        assert [s.name for s in restored] == ["net", "epoch"]
        np.testing.assert_allclose(restored[0].payload["weight"],
                                   net.state_dict()["weight"])

    def test_corrupt_payload_raises(self):
        from repro.exceptions import SerializationError
        with pytest.raises(SerializationError):
            deserialize_checkpoint(b"not a pickle")

    def test_non_list_payload_rejected(self):
        import pickle

        from repro.exceptions import SerializationError
        with pytest.raises(SerializationError):
            deserialize_checkpoint(pickle.dumps({"oops": 1}))


class TestCompression:
    def test_roundtrip(self):
        data = b"flor " * 1000
        result = compress(data)
        assert result.compressed_nbytes < result.raw_nbytes
        assert decompress(result.data) == data

    def test_decompress_passthrough_for_raw_bytes(self):
        assert decompress(b"plain bytes") == b"plain bytes"

    def test_ratio_greater_than_one_for_redundant_data(self):
        assert compress(b"a" * 10000).ratio > 10

    def test_ratio_close_to_one_for_random_data(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=10000, dtype=np.uint8).tobytes()
        assert compress(data).ratio < 1.2

    @given(st.binary(min_size=0, max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        assert decompress(compress(data).data) == data


def framed(codec: str, data: bytes) -> bytes:
    """``data`` as stored under ``codec``: by ``compress`` for the frames it
    writes, by hand for the zlib / lzma frames only older versions wrote."""
    if codec in CODEC_NAMES:
        result = compress(data, codec=codec)
        assert result.codec == codec
        return result.data
    body = zlib.compress(data) if codec == "zlib" else lzma.compress(
        data, preset=1)
    return FRAME_MAGIC + bytes((CODEC_IDS[codec],)) + body


class TestCodecRegistry:
    @pytest.mark.parametrize("codec", sorted(CODEC_IDS))
    def test_every_codec_roundtrips(self, codec):
        data = b"flor " * 1000
        assert decompress(framed(codec, data)) == data

    @pytest.mark.parametrize("codec", sorted(CODEC_IDS))
    def test_frame_carries_the_codec_id(self, codec):
        stored = framed(codec, b"payload")
        assert stored[:4] == FRAME_MAGIC
        assert stored[4] == CODEC_IDS[codec]
        assert codec_of(stored) == codec

    def test_raw_codec_frames_without_transforming(self):
        data = b"\x1f\x8b pretend gzip magic inside content"
        result = compress(data, codec="raw")
        # Framing disambiguates: raw chunk bytes that *start with* the
        # gzip magic still decode as themselves, not as a gzip stream.
        assert result.data[5:] == data
        assert decompress(result.data) == data

    def test_unknown_codec_rejected(self):
        with pytest.raises(StorageError, match="codec"):
            compress(b"data", codec="zstd")

    def test_unknown_codec_id_in_frame_rejected(self):
        with pytest.raises(StorageError):
            decompress(FRAME_MAGIC + bytes([250]) + b"junk")

    def test_corrupt_framed_stream_raises_storage_error(self):
        stored = bytearray(framed("zlib", b"flor " * 200))
        stored[10] ^= 0xFF
        with pytest.raises(StorageError):
            decompress(bytes(stored))

    def test_levels_change_output_not_value(self):
        data = (b"abcd" * 4096) + bytes(1000)
        fast = compress(data, codec="gzip", level=1)
        best = compress(data, codec="gzip", level=9)
        assert decompress(fast.data) == decompress(best.data) == data
        assert best.compressed_nbytes <= fast.compressed_nbytes

    def test_legacy_bare_gzip_still_decompresses(self):
        legacy = gzip.compress(b"recorded before framing", mtime=0)
        assert decompress(legacy) == b"recorded before framing"


class TestFramedSerialization:
    def test_frame_magic_and_segments(self):
        weights = np.random.default_rng(0).standard_normal(512)
        data = serialize_checkpoint([snapshot_value("w", weights)]).data
        assert data[:4] == SERIALIZED_MAGIC
        segments = payload_segments(data)
        # One head segment plus one out-of-band buffer per ndarray leaf.
        assert len(segments) == 2
        assert segments[1][1] == weights.nbytes
        # Segments tile the payload exactly.
        assert sum(length for _, length in segments) == len(data)

    def test_state_dict_leaves_become_buffers(self):
        net = tl.Linear(16, 16, rng=np.random.default_rng(0))
        data = serialize_checkpoint([snapshot_value("net", net)]).data
        segments = payload_segments(data)
        sizes = sorted(length for _, length in segments[1:])
        weight_nbytes = net.state_dict()["weight"].nbytes
        assert weight_nbytes in sizes  # the weight matrix travels raw

    def test_deserialized_arrays_equal_and_restorable(self):
        net = tl.Linear(4, 4, rng=np.random.default_rng(0))
        restored = deserialize_checkpoint(serialize_checkpoint(
            [snapshot_value("net", net)]).data)
        fresh = tl.Linear(4, 4, rng=np.random.default_rng(1))
        restore_value(restored[0], fresh)
        np.testing.assert_array_equal(fresh.weight.data, net.weight.data)

    def test_truncated_frame_raises(self):
        data = serialize_checkpoint(
            [snapshot_value("w", np.zeros(256))]).data
        with pytest.raises(SerializationError, match="corrupt framed"):
            deserialize_checkpoint(data[:len(data) - 7])

    def test_trailing_garbage_raises(self):
        data = serialize_checkpoint(
            [snapshot_value("w", np.zeros(256))]).data
        with pytest.raises(SerializationError, match="corrupt framed"):
            deserialize_checkpoint(data + b"extra")

    def test_legacy_plain_pickle_payload_still_deserializes(self):
        legacy = pickle.dumps([ValueSnapshot(name="epoch", kind=KIND_PICKLE,
                                             payload=3)])
        restored = deserialize_checkpoint(legacy)
        assert restored[0].payload == 3

    def test_empty_snapshot_list_roundtrips(self):
        data = serialize_checkpoint([]).data
        assert deserialize_checkpoint(data) == []


class TestSnapshotCaching:
    def test_pickle_kind_captures_at_snapshot_time(self):
        value = {"losses": [1.0]}
        snapshot = snapshot_value("history", value)
        value["losses"].append(2.0)  # mutate after capture
        assert snapshot.payload == {"losses": [1.0]}
        # fresh_payload hands out independent copies every call.
        first, second = snapshot.fresh_payload(), snapshot.fresh_payload()
        first["losses"].append(99.0)
        assert second == {"losses": [1.0]}

    def test_array_kind_copies_at_snapshot_time(self):
        live = np.zeros(8)
        snapshot = snapshot_value("arr", live)
        assert snapshot.kind == KIND_ARRAY
        live[:] = 7.0
        np.testing.assert_array_equal(snapshot.payload, np.zeros(8))

    def test_nbytes_cached_and_honest(self):
        weights = np.zeros(1000, dtype=np.float64)
        snapshot = snapshot_value("w", weights)
        assert snapshot.nbytes() == weights.nbytes
        assert snapshot.nbytes() is not None
        assert snapshot._nbytes == weights.nbytes  # computed once, cached

    def test_scalar_leaves_sized_honestly_not_flat_64(self):
        # The seed charged 64 bytes per non-array leaf; a state dict of
        # four scalars must now cost ~8 bytes each, not 256.
        snapshot = ValueSnapshot(name="s", kind=KIND_STATE_DICT,
                                 payload={"a": 1, "b": 2.0, "c": True,
                                          "d": None})
        assert snapshot.nbytes() == 32

    def test_unpicklable_value_fails_at_capture_time(self):
        with pytest.raises(SerializationError, match="cannot be checkpointed"):
            snapshot_value("bad", lambda x: x)

    def test_snapshot_pickles_without_materializing_payload(self):
        snapshot = snapshot_value("history", list(range(100)))
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.payload == list(range(100))
        assert clone.name == "history" and clone.kind == KIND_PICKLE
