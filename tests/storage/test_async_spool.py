"""Tests for the bounded async materialization spool.

Covers the tentpole guarantees: flush is a durability+index barrier,
manifest commits are batched, a full queue backpressures the submitter,
and a crash mid-spool can never leave the manifest referencing a missing
payload (payload-before-manifest ordering).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro.config import FlorConfig
from repro.exceptions import StorageError
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.spool import AsyncSpool
from repro.storage.serializer import snapshot_value


def make_snapshots(value: float = 1.0, size: int = 256):
    return [snapshot_value("weights", np.full(size, value, dtype=np.float32))]


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            raise AssertionError("condition not reached before timeout")
        time.sleep(0.002)


class TestFlushBarrier:
    def test_flush_makes_everything_durable_and_indexed(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        with AsyncSpool(store, workers=3, batch_size=4) as spool:
            for index in range(10):
                spool.submit("train", index, make_snapshots(float(index)))
            spool.flush()
            assert store.executions("train") == list(range(10))
            np.testing.assert_allclose(store.get("train", 7)[0].payload,
                                       np.full(256, 7.0))
            assert spool.stats.completed == 10
            assert spool.stats.indexed == 10

    def test_flush_is_reentrant_and_close_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=1)
        spool.submit("train", 0, make_snapshots())
        spool.flush()
        spool.flush()
        spool.close()
        spool.close()
        assert store.contains("train", 0)

    def test_submit_after_close_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=1)
        spool.close()
        with pytest.raises(StorageError, match="closed"):
            spool.submit("train", 0, make_snapshots())


class TestBatchedManifestCommits:
    def test_records_buffer_until_batch_threshold(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=1, batch_size=100)
        try:
            for index in range(5):
                spool.submit("train", index, make_snapshots(float(index)))
            # All five payloads complete in the background...
            wait_until(lambda: spool.stats.completed == 5)
            # ...but below the batch threshold nothing is indexed yet.
            assert store.totals().checkpoints == 0
            assert spool.stats.manifest_commits == 0
            spool.flush()
            # Flush commits the remainder in one transaction.
            assert store.totals().checkpoints == 5
            assert spool.stats.manifest_commits == 1
        finally:
            spool.close()

    def test_batch_threshold_triggers_commit_without_flush(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=1, batch_size=2)
        try:
            for index in range(6):
                spool.submit("train", index, make_snapshots(float(index)))
            wait_until(lambda: spool.stats.indexed >= 6)
            assert spool.stats.manifest_commits >= 3
        finally:
            spool.close()


class TestBackpressure:
    def test_full_queue_blocks_submit(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=1, queue_size=1)
        gate = threading.Event()
        original = store.backend.write_payload

        def slow_write(block_id, execution_index, payload, **kwargs):
            gate.wait(timeout=10.0)
            return original(block_id, execution_index, payload, **kwargs)

        store.backend.write_payload = slow_write
        try:
            # First submit occupies the worker, further ones fill the
            # 1-slot queue and then must block until the worker drains it.
            for index in range(4):
                spool.submit("train", index, make_snapshots(float(index)))
                if index == 1:
                    gate.set()  # un-wedge the worker once the queue is full
            spool.flush()
            assert spool.stats.backpressure_waits > 0
            assert spool.stats.backpressure_seconds > 0
            assert store.executions("train") == [0, 1, 2, 3]
        finally:
            gate.set()
            spool.close()


class TestCrashMidSpool:
    def test_manifest_never_references_missing_payload(self, tmp_path):
        """Kill the pipeline before flush; the manifest must stay closed
        under payload lookup (orphan payloads are fine, dangling manifest
        rows are not)."""
        store = CheckpointStore(tmp_path / "run")
        spool = AsyncSpool(store, workers=2, batch_size=3)
        for index in range(20):
            spool.submit("train", index, make_snapshots(float(index)))
        # Simulated crash: no flush, no close — just inspect mid-stream.
        for record in store.records():
            assert store.backend.read_payload(str(record.path)) is not None
        spool.close()

    def test_write_failure_never_indexes_and_is_reported(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        original = store.backend.write_payload

        def flaky_write(block_id, execution_index, payload, **kwargs):
            if execution_index == 2:
                raise OSError("disk on fire")
            return original(block_id, execution_index, payload, **kwargs)

        store.backend.write_payload = flaky_write
        spool = AsyncSpool(store, workers=2, batch_size=2)
        for index in range(5):
            spool.submit("train", index, make_snapshots(float(index)))
        spool.flush()
        assert store.executions("train") == [0, 1, 3, 4]
        assert len(spool.stats.errors) == 1
        assert "disk on fire" in spool.stats.errors[0]
        # A reopened store sees a consistent manifest.
        reopened = CheckpointStore(tmp_path / "run")
        for record in reopened.records():
            assert reopened.backend.read_payload(str(record.path)) is not None
        spool.close()


class TestSpoolThroughSession:
    """End-to-end: the spool + each backend through record/replay."""

    SCRIPT = """
import numpy as np
from repro import api as flor

weights = np.zeros(4)
for epoch in range(3):
    for step in range(2):
        weights = weights + 1.0
    flor.log("total", float(weights.sum()))
"""

    @pytest.mark.parametrize("backend_name", ["local", "memory", "sharded"])
    def test_record_then_replay(self, tmp_path, backend_name):
        from repro.record.recorder import record_source
        from repro.replay.replayer import replay_script
        from repro.storage.backends import discard_memory_dir

        config = FlorConfig(home=tmp_path / "home",
                            storage_backend=backend_name, storage_shards=2,
                            adaptive_checkpointing=False)
        repro.set_config(config)
        try:
            recorded = record_source(self.SCRIPT, name=f"spool-{backend_name}",
                                     config=config)
            assert recorded.checkpoint_count == 3
            replayed = replay_script(recorded.run_id, config=config)
            assert replayed.succeeded
            assert replayed.values("total") == [
                r.value for r in recorded.log_records if r.name == "total"]
        finally:
            repro.reset_config()
            discard_memory_dir(config.run_dir(recorded.run_id))

    def test_spool_metadata_recorded(self, tmp_path):
        from repro.record.recorder import record_source

        config = FlorConfig(home=tmp_path / "home",
                            spool_workers=3, adaptive_checkpointing=False)
        repro.set_config(config)
        try:
            recorded = record_source(self.SCRIPT, name="spool-meta",
                                     config=config)
            store = CheckpointStore(recorded.run_dir)
            meta = store.get_metadata("materializer")
            assert meta["strategy"] == "spool"
            assert meta["spool"]["workers"] == 3
            assert meta["spool"]["completed"] == recorded.checkpoint_count
            assert store.get_metadata("storage_backend") == "local"
        finally:
            repro.reset_config()
