"""Backend conformance suite: every run layout honours the same contract.

The same test body runs against the local layout (how every run is
written), a run whose manifest an older version created in the first
schema, and the sharded layout older versions wrote — the last two must
keep working, writes into them included.  Layout-specific behaviour
(on-disk layout, shard routing) is covered separately below, and a
sharded run must round-trip a replay identically to a local one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import FlorConfig
from faultutils import (LAYOUTS, make_sharded_run_dir, open_layout_store,
                        put_legacy)
from repro.exceptions import CheckpointNotFoundError, StorageError
from repro.storage.backends import StorageBackend
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compression import codec_of
from repro.storage.serializer import serialize_checkpoint, snapshot_value


def make_snapshots(value: float = 1.0, size: int = 64):
    return [snapshot_value("weights", np.full(size, value, dtype=np.float32)),
            snapshot_value("epoch", int(value))]


@pytest.fixture(params=LAYOUTS)
def backend_name(request):
    return request.param


@pytest.fixture()
def store(tmp_path, backend_name):
    store = open_layout_store(tmp_path / "run", backend_name)
    yield store
    store.close()


class TestConformance:
    def test_backend_name_matches_request(self, store, backend_name):
        assert store.backend.name == (
            "sharded" if backend_name == "sharded" else "local")

    def test_put_then_get(self, store):
        store.put("train", 0, make_snapshots(3.0))
        snapshots = store.get("train", 0)
        assert [s.name for s in snapshots] == ["weights", "epoch"]
        np.testing.assert_allclose(snapshots[0].payload, np.full(64, 3.0))

    def test_contains_and_missing_raises(self, store):
        assert not store.contains("train", 0)
        store.put("train", 0, make_snapshots())
        assert store.contains("train", 0)
        with pytest.raises(CheckpointNotFoundError):
            store.get("train", 99)

    def test_overwrite_same_execution_index(self, store):
        store.put("train", 0, make_snapshots(1.0))
        store.put("train", 0, make_snapshots(9.0))
        np.testing.assert_allclose(store.get("train", 0)[0].payload,
                                   np.full(64, 9.0))
        assert store.totals().checkpoints == 1

    def test_manifest_queries(self, store):
        for index in (4, 0, 2):
            store.put("train", index, make_snapshots(float(index)))
        store.put("eval", 1, make_snapshots())
        assert store.executions("train") == [0, 2, 4]
        assert store.executions("missing") == []
        assert store.latest_execution_at_or_before("train", 3) == 2
        assert store.latest_execution_at_or_before("train", 4) == 4
        assert store.latest_execution_at_or_before("missing", 4) is None
        assert store.blocks() == ["eval", "train"]
        records = store.records()
        assert [(r.block_id, r.execution_index) for r in records] == [
            ("eval", 1), ("train", 0), ("train", 2), ("train", 4)]
        assert all(record.digest for record in records)

    def test_totals(self, store):
        for index in range(3):
            store.put("train", index, make_snapshots(float(index)))
        totals = store.totals()
        assert totals.checkpoints == 3
        assert totals.stored_nbytes == sum(
            r.stored_nbytes for r in store.records())
        assert totals.raw_nbytes == sum(r.raw_nbytes for r in store.records())
        assert totals.raw_nbytes > 0

    def test_batched_index_commit(self, store):
        serialized_records = [
            store.write_payload("train", index,
                                serialize_checkpoint(
                                    make_snapshots(float(index))))
            for index in range(5)]
        # Payloads written, nothing indexed yet.
        assert store.totals().checkpoints == 0
        store.index_records(serialized_records)
        assert store.totals().checkpoints == 5
        assert store.executions("train") == [0, 1, 2, 3, 4]

    def test_metadata_roundtrip(self, store):
        store.set_metadata("epochs", 10)
        store.set_metadata("blocks", {"b0": {"line": 3}})
        store.set_metadata("epochs", 20)
        assert store.get_metadata("epochs") == 20
        assert store.get_metadata("blocks")["b0"]["line"] == 3
        assert store.get_metadata("missing", "default") == "default"
        assert set(store.all_metadata()) == {"epochs", "blocks"}

    def test_metadata_keys_prefix_scan(self, store):
        store.set_metadata("memo:aaa", {"v": 1})
        store.set_metadata("memo:bbb", {"v": 2})
        store.set_metadata("run_id", "r")
        assert store.metadata_keys("memo:") == ["memo:aaa", "memo:bbb"]
        assert store.metadata_keys() == ["memo:aaa", "memo:bbb", "run_id"]
        assert store.metadata_keys("zzz") == []

    def test_metadata_keys_prefix_is_literal_not_sql_pattern(self, store):
        # SQL LIKE wildcards in keys or prefixes must match literally:
        # the manifest answers with a range scan, not LIKE.
        store.set_metadata("memo%x", 1)
        store.set_metadata("memo_y", 2)
        store.set_metadata("memoZZ", 3)
        assert store.metadata_keys("memo%") == ["memo%x"]
        assert store.metadata_keys("memo_") == ["memo_y"]
        assert store.metadata_keys("memo") == ["memo%x", "memoZZ", "memo_y"]

    def test_reopen_preserves_contents(self, store, tmp_path, backend_name):
        store.put("train", 0, make_snapshots(5.0))
        store.set_metadata("run_id", "abc")
        store.close()
        reopened = CheckpointStore(tmp_path / "run")
        assert reopened.backend.name == store.backend.name
        assert reopened.get_metadata("run_id") == "abc"
        np.testing.assert_allclose(reopened.get("train", 0)[0].payload,
                                   np.full(64, 5.0))

    def test_weird_block_ids(self, store):
        store.put("weird/block id!", 0, make_snapshots())
        assert store.get("weird/block id!", 0)[0].name == "weights"

    def test_uncompressed(self, tmp_path, backend_name):
        store = open_layout_store(tmp_path / "raw", backend_name)
        incompressible = np.random.default_rng(0).standard_normal(
            8192).astype(np.float32)
        record = store.put("train", 0,
                           [snapshot_value("weights", incompressible)])
        stored = store.backend.read_payload(str(record.path))
        assert codec_of(stored) == "raw"
        # The raw codec only frames: stored = raw bytes + a small header.
        assert 0 < record.stored_nbytes - record.raw_nbytes <= 16
        assert store.get("train", 0)[0].name == "weights"


class TestDedupConformance:
    """Content-addressed dedup semantics, uniform across every backend."""

    def test_identical_payloads_share_one_blob(self, store):
        for index in range(4):
            store.put("train", index, make_snapshots(7.0))  # same content
        objects = store.backend.object_store()
        assert objects is not None
        assert objects.stats().objects == 1
        # Logical accounting still charges every row full price.
        assert store.totals().checkpoints == 4
        one = store.describe("train", 0).stored_nbytes
        assert store.totals().stored_nbytes == 4 * one

    def test_identical_payloads_dedup_across_blocks(self, store):
        store.put("train", 0, make_snapshots(3.0))
        store.put("eval", 9, make_snapshots(3.0))
        assert store.backend.object_store().stats().objects == 1
        np.testing.assert_allclose(store.get("eval", 9)[0].payload,
                                   np.full(64, 3.0))

    def test_refcounts_derived_from_manifest(self, store):
        store.put("train", 0, make_snapshots(1.0))
        store.put("train", 1, make_snapshots(1.0))
        store.put("train", 2, make_snapshots(2.0))
        counts = store.backend.referenced_digests()
        assert sorted(counts.values()) == [1, 2]
        shared = store.describe("train", 0).payload_digest
        assert counts[shared] == 2

    def test_overwrite_moves_reference_to_new_digest(self, store):
        store.put("train", 0, make_snapshots(1.0))
        old = store.describe("train", 0).payload_digest
        store.put("train", 0, make_snapshots(2.0))
        new = store.describe("train", 0).payload_digest
        counts = store.backend.referenced_digests()
        assert counts == {new: 1}
        assert old not in counts  # refcount 0: sweepable, not yet swept
        assert store.backend.object_store().contains(old)

    def test_delete_many_drops_rows_and_refcounts(self, store):
        for index in range(3):
            store.put("train", index, make_snapshots(5.0))
        deleted = store.backend.delete_many([("train", 0), ("train", 2),
                                             ("train", 99)])
        assert sorted(r.execution_index for r in deleted) == [0, 2]
        assert store.executions("train") == [1]
        counts = store.backend.referenced_digests()
        assert list(counts.values()) == [1]

    def test_record_carries_payload_digest(self, store):
        record = store.put("train", 0, make_snapshots(4.0))
        assert record.payload_digest == record.digest
        assert store.describe("train", 0).payload_digest == record.digest

    def test_legacy_rows_stay_outside_refcounts(self, tmp_path,
                                                backend_name):
        store = open_layout_store(tmp_path / "plain", backend_name)
        record = put_legacy(store, "train", 0, make_snapshots(1.0))
        put_legacy(store, "train", 1, make_snapshots(1.0))
        assert record.payload_digest == ""
        assert store.describe("train", 0).is_legacy_payload()
        assert store.backend.referenced_digests() == {}
        # Two identical payloads, two physical copies (the legacy deal).
        assert store.get("train", 0)[0].name == "weights"
        assert store.get("train", 1)[0].name == "weights"
        store.close()

    def test_dedup_store_reads_legacy_run(self, tmp_path, backend_name):
        legacy = open_layout_store(tmp_path / "run2", backend_name)
        put_legacy(legacy, "train", 0, make_snapshots(8.0))
        legacy.close()
        reopened = CheckpointStore(tmp_path / "run2")
        np.testing.assert_allclose(reopened.get("train", 0)[0].payload,
                                   np.full(64, 8.0))
        # New rows next to the legacy one go to the object store.
        record = reopened.put("train", 1, make_snapshots(9.0))
        assert record.payload_digest == record.digest
        assert reopened.describe("train", 0).is_legacy_payload()

    def test_cross_run_dedup_under_one_home(self, tmp_path, backend_name):
        store_a = open_layout_store(tmp_path / "run-a", backend_name)
        store_b = open_layout_store(tmp_path / "run-b", backend_name)
        store_a.put("train", 0, make_snapshots(6.0))
        store_b.put("train", 5, make_snapshots(6.0))
        objects_a = store_a.backend.object_store()
        objects_b = store_b.backend.object_store()
        assert objects_a is objects_b  # one shared store per home
        assert objects_a.stats().objects == 1


class TestLocalBackend:
    def test_single_connection_reused(self, tmp_path):
        backend = StorageBackend(tmp_path / "run")
        manifest = backend.shards[0]
        first = manifest._connection()
        backend.blocks()
        assert manifest._connection() is first
        backend.close()
        # Reopens lazily after close.
        assert backend.totals().checkpoints == 0

    def test_wal_mode(self, tmp_path):
        backend = StorageBackend(tmp_path / "run")
        mode = backend.shards[0]._connection().execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode.lower() == "wal"


class TestOneLayout:
    """Every new run is written the same way, whatever the caller asks."""

    def test_new_run_is_one_manifest_over_the_object_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        record = store.put("train", 0, make_snapshots())
        store.close()
        assert (tmp_path / "run" / "manifest.sqlite").is_file()
        assert not (tmp_path / "run" / "shards.json").exists()
        assert Path(record.path).is_relative_to(tmp_path / "objects")
        # Nothing is created that the run does not use.
        assert not (tmp_path / "run" / "checkpoints").exists()
        assert not (tmp_path / "run" / "source").exists()

    @pytest.mark.parametrize("knob", ["storage_backend", "storage_shards",
                                      "compress_checkpoints"])
    def test_removed_layout_knobs_are_type_errors(self, tmp_path, knob):
        with pytest.raises(TypeError):
            FlorConfig(home=tmp_path, **{knob: None})

    @pytest.mark.parametrize("kwarg", ["backend", "num_shards", "compress"])
    def test_store_takes_no_layout_arguments(self, tmp_path, kwarg):
        with pytest.raises(TypeError):
            CheckpointStore(tmp_path / "run", **{kwarg: None})


class TestShardedBackend:
    def test_layout_and_shard_manifest(self, tmp_path):
        store = open_layout_store(tmp_path / "run", "sharded", num_shards=3)
        for index in range(4):
            store.put(f"block-{index}", 0, make_snapshots())
        manifest = json.loads(
            (tmp_path / "run" / "shards.json").read_text("utf-8"))
        assert manifest["num_shards"] == 3
        shard_dirs = sorted(p.name for p in
                            (tmp_path / "run" / "shards").iterdir())
        assert shard_dirs == ["shard-00", "shard-01", "shard-02"]

    def test_stable_partitioning(self, tmp_path):
        backend = StorageBackend(make_sharded_run_dir(tmp_path / "run", 5))
        assignments = {bid: backend.shard_for(bid)
                       for bid in ("train", "eval", "epoch-7")}
        reopened = StorageBackend(tmp_path / "run")
        for bid, shard in assignments.items():
            assert reopened.shard_for(bid) == shard
            assert 0 <= shard < 5

    def test_blocks_spread_across_shards(self, tmp_path):
        backend = StorageBackend(make_sharded_run_dir(tmp_path / "run", 4))
        used = {backend.shard_for(f"block-{i}") for i in range(32)}
        assert len(used) > 1

    def test_persisted_shard_count_wins_on_reopen(self, tmp_path):
        open_layout_store(tmp_path / "run", "sharded", num_shards=3).close()
        reopened = CheckpointStore(tmp_path / "run")
        assert reopened.backend.num_shards == 3

    def test_reopen_autodetects_sharded_layout(self, tmp_path):
        store = open_layout_store(tmp_path / "run", "sharded")
        store.put("train", 0, make_snapshots(4.0))
        # A default (local) store on the same dir must find the shards.
        reopened = CheckpointStore(tmp_path / "run")
        assert reopened.backend.name == "sharded"
        np.testing.assert_allclose(reopened.get("train", 0)[0].payload,
                                   np.full(64, 4.0))

    def test_corrupt_shard_manifest_raises(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "shards.json").write_text("{not json", "utf-8")
        with pytest.raises(StorageError, match="corrupt shard manifest"):
            StorageBackend(run)


class TestShardedReplayRoundtrip:
    """Acceptance: a sharded run replays identically to a local run."""

    TRAIN_SCRIPT = """
import numpy as np
from repro import api as flor

weights = np.zeros(8)
for epoch in range(4):
    for step in range(3):
        weights = weights + (epoch + 1)
    flor.log("checksum", float(weights.sum()))
"""

    @pytest.mark.parametrize("backend_name", ["local", "sharded"])
    def test_record_replay_identical(self, tmp_path, backend_name):
        from repro.record.recorder import record_source
        from repro.replay.replayer import replay_script

        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False)
        run_id = f"roundtrip-{backend_name}"
        if backend_name == "sharded":
            make_sharded_run_dir(config.run_dir(run_id))
        repro.set_config(config)
        try:
            recorded = record_source(self.TRAIN_SCRIPT, config=config,
                                     run_id=run_id)
            assert recorded.storage_backend == backend_name
            record_values = [r.value for r in recorded.log_records
                             if r.name == "checksum"]
            replayed = replay_script(recorded.run_id, config=config)
            assert replayed.succeeded
            assert replayed.values("checksum") == record_values
            assert replayed.consistency is not None
            assert replayed.consistency.consistent
            # Parallel replay: forked workers each reopen the (possibly
            # sharded) store; merged logs must match the record exactly.
            parallel = replay_script(recorded.run_id, num_workers=2,
                                     config=config)
            assert parallel.succeeded
            assert parallel.values("checksum") == record_values
        finally:
            repro.reset_config()


# --------------------------------------------------------------------------- #
# Concurrent writers (the shared-home record-time contract)
# --------------------------------------------------------------------------- #
WRITER_ROWS = 6


def _record_writer_run(home, backend_name: str, index: int) -> None:
    """One writer: its own run manifest, the home's shared object store.

    Payload values repeat across writers (``j % 3``) so concurrent puts
    race on the *same* digests — the dedup-refresh path, not just fresh
    blob creation.
    """
    store = open_layout_store(home / f"writer-{index}", backend_name)
    try:
        for j in range(WRITER_ROWS):
            store.put("train", j, make_snapshots(float(j % 3), size=256))
    finally:
        store.close()


def _assert_writers_landed(home, backend_name: str, count: int) -> None:
    from faultutils import (assert_manifest_closed, assert_no_orphans,
                            assert_refcounts_exact)
    stores = [open_layout_store(home / f"writer-{i}", backend_name)
              for i in range(count)]
    try:
        for i, store in enumerate(stores):
            assert store.totals().checkpoints == WRITER_ROWS, \
                f"writer {i} lost manifest rows"
            assert store.executions("train") == list(range(WRITER_ROWS))
            assert_manifest_closed(store)
        assert_no_orphans(home)
        assert_refcounts_exact(home, stores)
    finally:
        for store in stores:
            store.close()


class TestConcurrentWriters:
    """K writers, one home: no lost manifests, no orphans, exact refcounts."""

    WRITERS = 4

    def test_threaded_writers_share_one_home(self, tmp_path, backend_name):
        import threading
        home = tmp_path / "home"
        errors = []

        def run(index):
            try:
                _record_writer_run(home, backend_name, index)
            except Exception as exc:  # surfaced in the main thread
                errors.append((index, exc))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(self.WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        _assert_writers_landed(home, backend_name, self.WRITERS)

    def test_threads_share_one_store(self, store):
        """One store, more writer threads than cores, a tiny switch interval:
        no manifest row and no metadata read-modify-write may be lost."""
        import sys
        import threading
        from faultutils import assert_manifest_closed
        rows = 12
        errors = []

        def run(index):
            try:
                for j in range(rows):
                    store.put(f"block-{index}", j,
                              make_snapshots(float(j % 3), size=16))
                    store.update_metadata("puts", lambda n: (n or 0) + 1)
            except Exception as exc:  # surfaced in the main thread
                errors.append((index, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(self.WRITERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert store.totals().checkpoints == self.WRITERS * rows
        assert store.get_metadata("puts") == self.WRITERS * rows
        for index in range(self.WRITERS):
            assert store.executions(f"block-{index}") == list(range(rows))
        assert_manifest_closed(store)

    @pytest.mark.multiproc
    @pytest.mark.parametrize("process_backend", ["local", "sharded"])
    def test_process_writers_share_one_home(self, tmp_path, process_backend):
        """Real OS processes, not just threads, racing on one home."""
        import multiprocessing as mp
        home = tmp_path / "home"
        ctx = mp.get_context("fork")
        processes = [
            ctx.Process(target=_record_writer_run,
                        args=(home, process_backend, i), daemon=True)
            for i in range(self.WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        _assert_writers_landed(home, process_backend, self.WRITERS)

    def test_writers_race_a_garbage_collector(self, tmp_path, backend_name):
        """GC sweeping mid-record must not eat a writer's in-flight blobs:
        the grace period covers the payload-before-manifest window."""
        import threading
        from repro.storage.lifecycle import collect_garbage
        home = tmp_path / "home"
        stop = threading.Event()
        errors = []

        def run(index):
            try:
                _record_writer_run(home, backend_name, index)
            except Exception as exc:
                errors.append((index, exc))

        def sweep():
            try:
                while not stop.is_set():
                    collect_garbage(home, grace_seconds=60.0)
            except Exception as exc:  # surfaced in the main thread
                errors.append(("sweeper", exc))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(self.WRITERS)]
        collector = threading.Thread(target=sweep)
        collector.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        collector.join(timeout=60)
        assert not errors, errors
        _assert_writers_landed(home, backend_name, self.WRITERS)
