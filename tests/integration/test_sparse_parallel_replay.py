"""Parallel replay under sparse (adaptive) checkpointing.

The adaptive controller materializes only a subset of Loop End Checkpoints,
so parallel replay cannot assume every segment boundary is restorable.
These tests pin the checkpoint pattern deterministically (a sparsified
Joint-Invariant decision) and exercise the checkpoint-aware scheduler end
to end, plus regressions for the weak-init divergence, fork-safety and
log-ordering bugs.
"""

from __future__ import annotations

import textwrap
from contextlib import contextmanager
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

import repro
from repro.modes import InitStrategy, Mode
from repro.record.adaptive import AdaptiveController
from repro.record.logger import LogRecord, read_log
from repro.record.recorder import record_source
from repro.replay.replayer import ReplayResult, replay_script
from repro.replay.scheduler import ReplayScheduler
from repro.session import Session
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value

EPOCHS = 6

TRAINING_SCRIPT = textwrap.dedent(f"""
    import numpy as np
    from repro import api as flor
    from repro import torchlike as tl

    rng = np.random.default_rng(0)
    X = rng.standard_normal((48, 6)).astype('float32')
    y = (X[:, 0] + X[:, 1] > 0).astype('int64')
    dataset = tl.TensorDataset(X, y)
    trainloader = tl.DataLoader(dataset, batch_size=12, shuffle=True, seed=0)
    net = tl.Sequential(tl.Linear(6, 12, rng=rng), tl.ReLU(),
                        tl.Linear(12, 2, rng=rng))
    optimizer = tl.SGD(net.parameters(), lr=0.2, momentum=0.9)
    criterion = tl.CrossEntropyLoss()

    for epoch in range({EPOCHS}):
        trainloader.set_epoch(epoch)
        for batch_x, batch_y in trainloader:
            logits = net(tl.Tensor(batch_x))
            loss = criterion(logits, batch_y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        flor.log("train_loss", loss.item())
""")


@contextmanager
def materialize_only(period: int, offset: int = 0):
    """Sparsify the Joint Invariant: keep every ``period``-th checkpoint.

    Deterministic stand-in for what adaptive checkpointing does under a
    tight overhead budget (timing-based decisions would flake in CI).
    ``period=0`` drops every checkpoint.
    """
    original = AdaptiveController.should_materialize

    def sparse(self, block_id, compute_seconds, payload_nbytes):
        decision = original(self, block_id, compute_seconds, payload_nbytes)
        index = self.block(block_id).executions - 1  # set by observe_execution
        keep = period > 0 and index % period == offset
        return dataclass_replace(decision, materialize=keep,
                                 reason=f"test sparsifier period={period}")

    AdaptiveController.should_materialize = sparse
    try:
        yield
    finally:
        AdaptiveController.should_materialize = original


def record_sparse(period: int, offset: int = 0, name: str = "sparse"):
    with materialize_only(period, offset):
        return record_source(TRAINING_SCRIPT, name=name)


def covered_iterations(replay: ReplayResult) -> list[int]:
    return sorted(index for worker in replay.worker_results
                  for index in worker.iterations)


class TestSparseParallelReplay:
    """End-to-end hindsight parallelism over a sparse checkpoint store."""

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_replay_is_clean_across_workers(self, flor_config, num_workers):
        recorded = record_sparse(period=3, name="sparse")
        assert recorded.checkpoint_count == 2  # epochs 0 and 3 of 6
        replay = replay_script(recorded.run_id, num_workers=num_workers,
                               config=flor_config)
        assert replay.succeeded
        assert replay.consistency is not None
        assert replay.consistency.consistent
        assert covered_iterations(replay) == list(range(EPOCHS))
        record_losses = [r.value for r in recorded.log_records
                         if r.name == "train_loss"]
        assert replay.values("train_loss") == pytest.approx(record_losses)

    def test_static_segments_align_to_materialized_checkpoints(
            self, flor_config):
        recorded = record_sparse(period=3, name="sparse-align")
        store = CheckpointStore(flor_config.run_dir(recorded.run_id))
        assert store.executions("skipblock_0") == [0, 3]
        assert store.get_metadata("loop_blocks") == ["skipblock_0"]
        stats = store.get_metadata("iteration_stats")
        assert len(stats["per_iteration_compute_seconds"]) == EPOCHS
        assert stats["mean_compute_seconds"] > 0

        scheduler = ReplayScheduler(store, EPOCHS, 2)
        segments = scheduler.static_segments()
        for segment in segments[1:]:
            if len(segment):
                # Every non-leading boundary sits right after a checkpoint.
                assert segment.start - 1 in {0, 3}

    def test_worker_log_records_match_their_replay_logs(self, flor_config):
        recorded = record_sparse(period=3, name="sparse-logs")
        replay = replay_script(recorded.run_id, num_workers=2,
                               config=flor_config)
        assert replay.succeeded
        run_dir = flor_config.run_dir(recorded.run_id)
        for worker in replay.worker_results:
            assert worker.log_records == read_log(
                run_dir / f"replay-p{worker.pid}of2.log")
        assert sum(len(worker.log_records)
                   for worker in replay.worker_results) == EPOCHS


class TestWeakInitDivergenceRegression:
    """Weak init at an uncheckpointed boundary must recompute, not rewind."""

    def test_weak_replay_over_sparse_checkpoints_is_consistent(
            self, flor_config):
        # Checkpoints at epochs 0 and 4 only.  The paper's uniform 2-worker
        # boundary at 3 has no checkpoint at 2, and the old weak init
        # silently replayed epoch 3 from epoch 0's state; the static plan
        # starts every later segment right after an aligned checkpoint.
        recorded = record_sparse(period=4, name="weak-gap")
        store = CheckpointStore(flor_config.run_dir(recorded.run_id))
        assert store.executions("skipblock_0") == [0, 4]
        segments = ReplayScheduler(store, EPOCHS, 2).static_segments()
        store.close()
        for segment in segments[1:]:
            if len(segment):
                assert segment.start - 1 in {0, 4}

        replay = replay_script(recorded.run_id, num_workers=2,
                               init_strategy=InitStrategy.WEAK,
                               config=flor_config)
        assert replay.succeeded
        assert replay.consistency.consistent
        record_losses = [r.value for r in recorded.log_records
                         if r.name == "train_loss"]
        assert replay.values("train_loss") == pytest.approx(record_losses)

    def test_weak_replay_without_any_checkpoint_recomputes_with_warning(
            self, flor_config):
        recorded = record_sparse(period=0, name="weak-none")
        assert recorded.checkpoint_count == 0
        replay = replay_script(recorded.run_id, num_workers=1,
                               init_strategy=InitStrategy.WEAK,
                               config=flor_config)
        assert replay.consistency.consistent

        replay = replay_script(recorded.run_id, num_workers=2,
                               init_strategy=InitStrategy.WEAK,
                               config=flor_config)
        assert replay.succeeded
        assert replay.consistency.consistent

    def test_weak_replay_without_any_checkpoint_raises_when_strict(
            self, flor_config):
        recorded = record_sparse(period=0, name="weak-strict")
        config = flor_config.with_overrides(strict_consistency=True)
        with pytest.raises(repro.ReplayError, match="no usable checkpoint"):
            replay_script(recorded.run_id, num_workers=2,
                          init_strategy=InitStrategy.WEAK, config=config)


class TestForkSafetyRegression:
    """Parallel replay launched while a live session holds spool threads
    and a WAL-mode SQLite connection must not corrupt either."""

    def test_parallel_replay_inside_live_spool_record_session(
            self, flor_config):
        recorded = record_sparse(period=3, name="fork-safety")
        spool_config = flor_config.with_overrides(spool_workers=2)
        parent = Session("fork-parent", Mode.RECORD, config=spool_config)
        with parent:
            # Keep the spool pipeline genuinely warm while we fork/spawn.
            for index in range(4):
                parent.materializer.submit(
                    "warm", index,
                    [snapshot_value("w", np.zeros(256, dtype=np.float32))])
            replay = replay_script(recorded.run_id, num_workers=2,
                                   config=spool_config)
            assert replay.succeeded
            assert replay.consistency.consistent
            # The parent session's store is still usable afterwards.
            parent.materializer.flush()
            assert parent.store.contains("warm", 0)
        assert parent.store.executions("warm") == [0, 1, 2, 3]

    def test_live_session_switches_fork_to_spawn(self, flor_config):
        """The session's spool threads would not survive ``fork``."""
        from repro.replay.parallel import _quiesce_parent_session
        assert _quiesce_parent_session("fork") == "fork"  # no session
        with Session("fork-parent", Mode.RECORD, config=flor_config):
            assert _quiesce_parent_session("fork") == "spawn"
            assert _quiesce_parent_session("spawn") == "spawn"


class TestLogOrderingRegression:
    """ReplayResult.values must honour iteration order, not worker order."""

    def test_values_sorts_concatenated_worker_logs(self):
        late_worker = [LogRecord("loss", 3.0, iteration=3, sequence=0),
                       LogRecord("loss", 4.0, iteration=4, sequence=1)]
        early_worker = [LogRecord("loss", 0.0, iteration=0, sequence=0),
                        LogRecord("loss", 1.0, iteration=1, sequence=1)]
        result = ReplayResult(
            run_id="r", probed_blocks=set(), num_workers=2,
            init_strategy=InitStrategy.STRONG, wall_seconds=0.0,
            log_records=late_worker + early_worker)  # worker order, unsorted
        assert result.values("loss") == [0.0, 1.0, 3.0, 4.0]

    def test_merged_logs_reach_consistency_check_in_iteration_order(
            self, flor_config):
        recorded = record_sparse(period=2, name="ordering")
        replay = replay_script(recorded.run_id, num_workers=3)
        iterations = [record.iteration for record in replay.log_records
                      if record.name == "train_loss"]
        assert iterations == sorted(iterations)
        assert replay.consistency.consistent
