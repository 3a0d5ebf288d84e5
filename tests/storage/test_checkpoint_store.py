"""Tests for the SQLite-indexed checkpoint store."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import (CheckpointNotFoundError, SerializationError,
                              StorageError)
from faultutils import put_legacy
from repro.config import FlorConfig
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.chunking import chunk_spans
from repro.storage.compression import codec_of, compress
from repro.storage.serializer import payload_segments, snapshot_value


def make_snapshots(value: float = 1.0):
    return [snapshot_value("weights", np.full(16, value, dtype=np.float32)),
            snapshot_value("epoch", int(value))]


class TestCheckpointRoundtrip:
    def test_put_then_get(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.put("train", 0, make_snapshots(3.0))
        snapshots = store.get("train", 0)
        assert [s.name for s in snapshots] == ["weights", "epoch"]
        np.testing.assert_allclose(snapshots[0].payload, np.full(16, 3.0))

    def test_contains(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        assert not store.contains("train", 0)
        store.put("train", 0, make_snapshots())
        assert store.contains("train", 0)

    def test_missing_checkpoint_raises_with_context(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        with pytest.raises(CheckpointNotFoundError) as excinfo:
            store.get("train", 5, run_id="my-run")
        assert excinfo.value.block_id == "train"
        assert excinfo.value.execution_index == 5
        assert "my-run" in str(excinfo.value)

    def test_overwrite_same_execution_index(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.put("train", 0, make_snapshots(1.0))
        store.put("train", 0, make_snapshots(9.0))
        snapshots = store.get("train", 0)
        np.testing.assert_allclose(snapshots[0].payload, np.full(16, 9.0))
        assert store.totals().checkpoints == 1

    def test_uncompressed_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        noise = np.random.default_rng(0).standard_normal(8192)
        record = store.put("train", 0, [
            snapshot_value("weights", noise.astype(np.float32))])
        assert codec_of(store.backend.read_payload(str(record.path))) == "raw"
        assert record.stored_nbytes > record.raw_nbytes  # frame header only
        assert store.get("train", 0)[0].name == "weights"

    def test_compression_shrinks_redundant_payloads(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        record = store.put("train", 0, make_snapshots(0.0))
        assert record.stored_nbytes < record.raw_nbytes


class TestReadVerifiesDigest:
    """Every read checks the manifest digest, whole rows included."""

    @pytest.mark.parametrize("layout", [
        {"chunking": "off"}, {"legacy": True},
        {"chunking": "fixed", "chunk_nbytes": 16384}])
    def test_flipped_byte_is_an_error_not_wrong_weights(self, tmp_path,
                                                        layout):
        layout = dict(layout)
        legacy = layout.pop("legacy", False)
        store = CheckpointStore(tmp_path / "run", **layout)
        # Float noise: every blob is raw-framed, so the flipped byte
        # reaches the digest check rather than a decoder's own check.
        weights = np.random.default_rng(0).standard_normal(
            16384).astype(np.float32)
        snapshots = [snapshot_value("weights", weights)]
        record = (put_legacy(store, "train", 0, snapshots) if legacy
                  else store.put("train", 0, snapshots))
        if record.is_chunked():
            blob = store.backend.object_store().blob_path(
                record.recipe_digests()[-1])
        else:
            blob = Path(record.path)
        stored = bytearray(blob.read_bytes())
        stored[-8] ^= 0x01  # inside the last float, past every header
        blob.write_bytes(bytes(stored))
        # A fresh store: no previously verified chunks to reuse.
        with pytest.raises(SerializationError, match="corrupt|digest"):
            CheckpointStore(tmp_path / "run").get("train", 0)

    def test_intact_whole_rows_still_read(self, tmp_path):
        whole = CheckpointStore(tmp_path / "whole", chunking="off")
        whole.put("train", 0, make_snapshots(2.0))
        legacy = CheckpointStore(tmp_path / "legacy")
        put_legacy(legacy, "train", 0, make_snapshots(2.0))
        for store in (whole, legacy):
            np.testing.assert_allclose(store.get("train", 0)[0].payload,
                                       np.full(16, 2.0))


class TestManifestQueries:
    def test_executions_sorted(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        for index in (4, 0, 2):
            store.put("train", index, make_snapshots())
        assert store.executions("train") == [0, 2, 4]
        assert store.executions("other") == []

    def test_latest_execution_at_or_before(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        for index in (0, 5, 10):
            store.put("train", index, make_snapshots())
        assert store.latest_execution_at_or_before("train", 7) == 5
        assert store.latest_execution_at_or_before("train", 10) == 10
        assert store.latest_execution_at_or_before("train", 4) == 0
        assert store.latest_execution_at_or_before("other", 4) is None

    def test_blocks_and_records(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.put("a", 0, make_snapshots())
        store.put("b", 0, make_snapshots())
        assert store.blocks() == ["a", "b"]
        records = store.records()
        assert len(records) == 2
        assert all(record.digest for record in records)

    def test_describe_reports_sizes_and_timings(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.put("train", 0, make_snapshots())
        record = store.describe("train", 0)
        assert record.raw_nbytes > 0
        assert record.serialize_seconds >= 0
        assert record.write_seconds >= 0
        assert record.path.exists()

    def test_totals(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        records = [store.put("train", index, make_snapshots())
                   for index in range(3)]
        totals = store.totals()
        assert totals.checkpoints == 3
        assert totals.stored_nbytes == sum(r.stored_nbytes for r in records)
        assert totals.raw_nbytes == sum(r.raw_nbytes for r in records)

    def test_block_id_sanitized_for_filesystem(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        record = store.put("weird/block id!", 0, make_snapshots())
        assert record.path.exists()
        assert store.get("weird/block id!", 0)[0].name == "weights"


class TestMetadataAndSources:
    def test_metadata_roundtrip_and_overwrite(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.set_metadata("epochs", 10)
        store.set_metadata("blocks", {"skipblock_0": {"start_line": 3}})
        store.set_metadata("epochs", 20)
        assert store.get_metadata("epochs") == 20
        assert store.get_metadata("blocks")["skipblock_0"]["start_line"] == 3
        assert store.get_metadata("missing", "default") == "default"
        assert set(store.all_metadata()) == {"epochs", "blocks"}

    def test_source_snapshot_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.save_source("script.py", "print('hello')\n")
        assert store.load_source("script.py") == "print('hello')\n"
        assert "script.py" in store.list_sources()

    def test_missing_source_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        with pytest.raises(StorageError):
            store.load_source("nope.py")

    def test_reopening_store_preserves_contents(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.put("train", 0, make_snapshots(5.0))
        store.set_metadata("run_id", "abc")

        reopened = CheckpointStore(tmp_path / "run")
        assert reopened.get_metadata("run_id") == "abc"
        np.testing.assert_allclose(reopened.get("train", 0)[0].payload,
                                   np.full(16, 5.0))


def test_perfbench_layer_pass_seams(tmp_path):
    """What perfbench's traced layer pass still calls on the write path:
    ``resolve_codec``, ``FlorConfig.codec_level``, ``compress(codec=)``
    with ``"gzip"`` / ``"raw"`` and ``chunk_spans(mode="off")``."""
    config = FlorConfig(home=tmp_path)
    store = CheckpointStore.for_config(config.run_dir("direct"), config)
    assert config.codec_level is None
    assert store.resolve_codec(1 << 20) == "gzip"
    data = bytes(64 * 1024)
    assert compress(data, level=config.codec_level,
                    codec=store.resolve_codec(len(data))).codec == "gzip"
    assert compress(data, codec="raw").codec == "raw"
    assert chunk_spans(data, mode="off", chunk_nbytes=config.chunk_nbytes,
                       segments=payload_segments(data)) == [(0, len(data))]
