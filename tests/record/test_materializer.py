"""Tests for record-time materialization (Section 5.1): the async spool is
the only strategy, built by ``create_materializer``."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.config import FlorConfig
from repro.exceptions import RecordError
from repro.modes import Mode
from repro.query.api import query
from repro.record.materializer import create_materializer
from repro.record.recorder import record_source
from repro.replay.replayer import replay_script
from repro.session import Session
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value
from repro.storage.spool import AsyncSpool


def make_snapshots(value: float = 1.0, size: int = 1024):
    return [snapshot_value("weights", np.full(size, value, dtype=np.float32))]


# ``create_materializer`` knows one strategy; every name the paper's Figure 5
# compared (and earlier versions shipped) is rejected.
STRATEGIES = ["spool"]
DELETED_STRATEGIES = ["sequential", "thread", "ipc_queue", "fork",
                      "shared_memory"]


class TestStrategiesWriteDurableCheckpoints:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_submit_flush_then_read_back(self, tmp_path, strategy):
        store = CheckpointStore(tmp_path / strategy, compress=False)
        materializer = create_materializer(strategy, store)
        try:
            main_thread_seconds, nbytes = materializer.submit(
                "train", 0, make_snapshots(7.0))
            materializer.flush()
        finally:
            materializer.close()
        assert main_thread_seconds >= 0
        assert nbytes > 0
        snapshots = store.get("train", 0)
        np.testing.assert_allclose(snapshots[0].payload, np.full(1024, 7.0))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_multiple_checkpoints(self, tmp_path, strategy):
        store = CheckpointStore(tmp_path / strategy, compress=False)
        materializer = create_materializer(strategy, store)
        try:
            for index in range(4):
                materializer.submit("train", index, make_snapshots(float(index)))
            materializer.flush()
        finally:
            materializer.close()
        assert store.executions("train") == [0, 1, 2, 3]
        np.testing.assert_allclose(store.get("train", 3)[0].payload,
                                   np.full(1024, 3.0))

    def test_stats_accumulate(self, tmp_path):
        store = CheckpointStore(tmp_path / "run", compress=False)
        materializer = create_materializer("spool", store)
        materializer.submit("a", 0, make_snapshots())
        materializer.submit("a", 1, make_snapshots())
        materializer.close()
        assert materializer.stats.submitted == 2
        assert materializer.stats.completed == 2
        assert materializer.stats.main_thread_seconds > 0
        assert materializer.stats.raw_nbytes > 0

    def test_unknown_strategy_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        with pytest.raises(RecordError, match="unknown materializer"):
            create_materializer("carrier-pigeon", store)

    @pytest.mark.parametrize("name", DELETED_STRATEGIES)
    def test_deleted_strategy_names_rejected(self, tmp_path, name):
        store = CheckpointStore(tmp_path / "run")
        with pytest.raises(RecordError, match=rf"unknown materializer "
                           rf"'{name}'; known: \['spool'\]"):
            create_materializer(name, store)

    def test_config_sizes_the_pool_and_kwargs_win(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        config = FlorConfig(home=tmp_path, spool_workers=3,
                            spool_queue_size=5, manifest_batch_size=7)
        materializer = create_materializer("spool", store, config=config,
                                           batch_size=2)
        materializer.close()
        assert isinstance(materializer, AsyncSpool)
        assert (materializer.workers, materializer.queue_size,
                materializer.batch_size) == (3, 5, 2)


class TestSequentialVsBackground:
    def test_thread_strategy_defers_work(self, tmp_path):
        store = CheckpointStore(tmp_path / "run", compress=False)
        materializer = create_materializer("spool", store, batch_size=1000)
        materializer.submit("train", 0, make_snapshots())
        # Below the batch threshold: the row is not indexed before flush.
        assert not store.contains("train", 0)
        materializer.flush()
        assert store.contains("train", 0)
        materializer.close()

    def test_batch_size_one_commits_without_flush(self, tmp_path):
        store = CheckpointStore(tmp_path / "run", compress=False)
        materializer = create_materializer("spool", store, batch_size=1)
        materializer.submit("train", 0, make_snapshots())
        deadline = time.time() + 10.0
        while not store.contains("train", 0) and time.time() < deadline:
            time.sleep(0.002)
        assert store.contains("train", 0)
        materializer.close()

    def test_thread_blocks_main_thread_less_than_sequential(self, tmp_path):
        """The point of Figure 5: the spool's worker threads keep the
        training thread (much) less busy than serializing and writing inline
        (sequentially) on a large payload.
        Timing comparisons are noisy, so the payload is large and the
        assertion is a loose factor."""
        payload = make_snapshots(size=2_000_000)

        inline = CheckpointStore(tmp_path / "inline", compress=False)
        start = time.perf_counter()
        inline.put("train", 0, payload)
        inline_seconds = time.perf_counter() - start

        store = CheckpointStore(tmp_path / "spool", compress=False)
        spool = create_materializer("spool", store)
        spool_seconds, _ = spool.submit("train", 0, payload)
        spool.close()

        assert store.contains("train", 0)
        assert spool_seconds <= inline_seconds * 2


class TestFailedWritesSurface:
    """A checkpoint write that fails on a spool worker is reported, not
    silently dropped, and replay recomputes the missing execution."""

    SCRIPT = """
import numpy as np
from repro import api as flor

weights = np.zeros(4)
for epoch in range(5):
    for step in range(2):
        weights = weights + 1.0
    flor.log("total", float(weights.sum()))
"""

    @pytest.fixture()
    def flaky_writes(self, monkeypatch):
        original = CheckpointStore.write_payload

        def flaky(store, block_id, execution_index, serialized):
            if execution_index == 2:
                raise OSError("disk on fire")
            return original(store, block_id, execution_index, serialized)

        monkeypatch.setattr(CheckpointStore, "write_payload", flaky)
        return monkeypatch

    def test_failed_write_warns_and_is_persisted(self, tmp_path,
                                                 flaky_writes):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False)
        with pytest.warns(UserWarning, match=r"1 checkpoint write\(s\) "
                          r"failed.*\[2\]: disk on fire"):
            recorded = record_source(self.SCRIPT, name="flaky", config=config)
        flaky_writes.undo()
        assert recorded.checkpoint_count == 4
        meta = CheckpointStore(recorded.run_dir).get_metadata("materializer")
        assert meta["submitted"] == 5
        assert meta["spool"]["completed"] == 4
        assert len(meta["errors"]) == 1
        assert "[2]: disk on fire" in meta["errors"][0]

        expected = [r.value for r in recorded.log_records
                    if r.name == "total"]
        for workers in (1, 2):
            replayed = replay_script(recorded.run_id, config=config,
                                     num_workers=workers)
            assert replayed.succeeded
            assert replayed.values("total") == expected

    def test_strict_consistency_raises_after_metadata(self, tmp_path,
                                                      flaky_writes):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False,
                            strict_consistency=True)
        with pytest.raises(RecordError, match="disk on fire"):
            record_source(self.SCRIPT, name="strict", config=config,
                          run_id="strict-run")
        flaky_writes.undo()
        meta = CheckpointStore(config.run_dir("strict-run")).get_metadata(
            "materializer")
        assert meta["errors"] and meta["spool"]["completed"] == 4

    def test_clean_record_reports_no_errors(self, tmp_path):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recorded = record_source(self.SCRIPT, name="clean", config=config)
        meta = CheckpointStore(recorded.run_dir).get_metadata("materializer")
        assert meta["strategy"] == "spool" and meta["errors"] == []
        assert "mode" not in meta["spool"]


class TestSessionUsesTheSpool:
    SCRIPT = TestFailedWritesSurface.SCRIPT

    def test_record_reports_the_spools_main_thread_seconds(self, tmp_path):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False)
        recorded = record_source(self.SCRIPT, name="seconds", config=config)
        meta = CheckpointStore(recorded.run_dir).get_metadata("materializer")
        assert meta["submitted"] == recorded.checkpoint_count == 5
        assert recorded.materialization_main_thread_seconds > 0
        assert (recorded.materialization_main_thread_seconds
                == meta["main_thread_seconds"])

    def test_completions_feed_the_adaptive_controller(self, tmp_path):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False)
        with Session("probe", Mode.RECORD, config=config) as session:
            assert isinstance(session.materializer, AsyncSpool)
        recorded = record_source(self.SCRIPT, name="observed", config=config)
        store = CheckpointStore(recorded.run_dir)
        summary = store.get_metadata("adaptive_summary")
        completed = store.get_metadata("materializer")["spool"]["completed"]
        assert summary, "the main loop was checkpointed"
        assert all(entry["total_background_seconds"] > 0
                   for entry in summary.values() if entry["checkpoints"])
        assert completed == sum(entry["checkpoints"]
                                for entry in summary.values()) == 5


class TestRunsRecordedUnderDeletedStrategies:
    """Homes recorded before the spool became the only materializer name
    another strategy in their ``"materializer"`` metadata and lack its
    ``"spool"`` and ``"errors"`` entries.  Every strategy wrote the store's
    one checkpoint format, so those runs replay and query like any other."""

    SCRIPT = TestFailedWritesSurface.SCRIPT
    PROBE = SCRIPT.replace(
        '    flor.log("total", float(weights.sum()))',
        '    flor.log("total", float(weights.sum()))\n'
        '    flor.log("norm", float(np.linalg.norm(weights)))')

    @pytest.mark.parametrize("strategy", DELETED_STRATEGIES)
    def test_replays_and_queries(self, tmp_path, strategy):
        config = FlorConfig(home=tmp_path / "home",
                            adaptive_checkpointing=False,
                            query_memoize=False)
        recorded = record_source(self.SCRIPT, name="legacy", config=config,
                                 run_id=f"run-{strategy}")
        store = CheckpointStore(recorded.run_dir)
        meta = store.get_metadata("materializer")
        store.set_metadata("materializer", {
            "strategy": strategy, "submitted": meta["submitted"],
            "main_thread_seconds": meta["main_thread_seconds"]})
        store.close()

        totals = [r.value for r in recorded.log_records if r.name == "total"]
        norms = [4.0 * (epoch + 1) for epoch in range(5)]
        for workers in (1, 2):
            replayed = replay_script(recorded.run_id, new_source=self.PROBE,
                                     config=config, num_workers=workers)
            assert replayed.succeeded
            assert replayed.values("total") == totals
            assert replayed.values("norm") == pytest.approx(norms)
        result = query(["norm", "total"], runs=[recorded.run_id],
                       source=self.PROBE, config=config, workers=2,
                       memoize=False)
        cells = {(row.name, row.iteration): row.value for row in result.rows}
        assert [cells["total", i] for i in range(5)] == totals
        assert [cells["norm", i] for i in range(5)] == pytest.approx(norms)
