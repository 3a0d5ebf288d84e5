"""Tests for the SQLite-indexed checkpoint store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CheckpointNotFoundError, StorageError
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value


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
        store = CheckpointStore(tmp_path / "run", compress=False)
        record = store.put("train", 0, make_snapshots())
        assert record.stored_nbytes == record.raw_nbytes
        assert store.get("train", 0)[0].name == "weights"

    def test_compression_shrinks_redundant_payloads(self, tmp_path):
        store = CheckpointStore(tmp_path / "run", compress=True)
        record = store.put("train", 0, make_snapshots(0.0))
        assert record.stored_nbytes < record.raw_nbytes


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
