"""Tests for the SkipBlock construct and the Session through the explicit API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api as flor
from repro import torchlike as tl
from repro.modes import InitStrategy, Mode, Phase
from repro.record.skipblock import UNDEFINED
from repro.replay.scheduler import ReplayScheduler
from repro.session import Session, get_active_session
from repro.storage.checkpoint_store import CheckpointStore


def train_with_explicit_api(session, epochs=4, lr=0.2):
    """A miniature training loop written against the explicit SkipBlock API."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((32, 4)).astype(np.float32)
    y = (X[:, 0] > 0).astype(np.int64)
    net = tl.Sequential(tl.Linear(4, 8, rng=rng), tl.ReLU(),
                        tl.Linear(8, 2, rng=rng))
    optimizer = tl.SGD(net.parameters(), lr=lr, momentum=0.9)
    criterion = tl.CrossEntropyLoss()
    losses = []
    for epoch in session.loop(range(epochs)):
        sb = session.skipblock("train")
        if sb.should_execute():
            for start in range(0, 32, 8):
                logits = net(tl.Tensor(X[start:start + 8]))
                loss = criterion(logits, y[start:start + 8])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        net, optimizer = sb.end(
            _namespace={"net": net, "optimizer": optimizer},
            net=net, optimizer=optimizer)
        with tl.no_grad():
            full_loss = criterion(net(tl.Tensor(X)), y).item()
        session.log("loss", full_loss)
        losses.append(full_loss)
    return losses


def assigned_segment(config, run_id, pid, num_workers=2, total=4):
    """Worker ``pid``'s segment of the run's static replay plan."""
    store = CheckpointStore.for_config(config.run_dir(run_id), config)
    try:
        scheduler = ReplayScheduler(store, total, num_workers)
        return scheduler.static_segments()[pid]
    finally:
        store.close()


class TestRecordMode:
    def test_record_materializes_one_checkpoint_per_epoch(self, flor_config):
        session = Session("run-a", Mode.RECORD, config=flor_config)
        with session:
            losses = train_with_explicit_api(session)
        assert len(losses) == 4
        assert session.store.executions("train") == [0, 1, 2, 3]
        assert session.store.get_metadata("main_loop_total") == 4

    def test_record_logs_go_to_record_log(self, flor_config):
        session = Session("run-b", Mode.RECORD, config=flor_config)
        with session:
            train_with_explicit_api(session)
        records = session.record_log_records()
        assert [r.name for r in records] == ["loss"] * 4
        assert [r.iteration for r in records] == [0, 1, 2, 3]

    def test_skipblock_end_before_should_execute_raises(self, flor_config):
        session = Session("run-c", Mode.RECORD, config=flor_config)
        with session:
            sb = session.skipblock("train")
            with pytest.raises(repro.ReplayError):
                sb.end(x=1)

    def test_active_session_registry(self, flor_config):
        session = Session("run-d", Mode.RECORD, config=flor_config)
        assert get_active_session() is None
        with session:
            assert get_active_session() is session
            with pytest.raises(repro.RecordError):
                Session("run-e", Mode.RECORD, config=flor_config).activate()
        assert get_active_session() is None

    def test_execution_index_uses_main_loop_iteration(self, flor_config):
        session = Session("run-f", Mode.RECORD, config=flor_config)
        with session:
            for epoch in session.loop(range(3)):
                sb = session.skipblock("block")
                assert sb.execution_index == epoch
                sb.should_execute()
                sb.end(_namespace={}, value=epoch)

    def test_execution_index_outside_main_loop_counts_up(self, flor_config):
        session = Session("run-g", Mode.RECORD, config=flor_config)
        with session:
            indices = [session.skipblock("b").execution_index for _ in range(3)]
        assert indices == [0, 1, 2]

    def test_repeated_block_in_same_iteration_gets_composite_index(self,
                                                                   flor_config):
        session = Session("run-h", Mode.RECORD, config=flor_config)
        with session:
            for _ in session.loop(range(1)):
                first = session.skipblock("b").execution_index
                second = session.skipblock("b").execution_index
        assert first == 0
        # Composite indices live above 1_000_000 even in iteration 0, so a
        # repeat can never alias a later iteration's plain index.
        assert second == 1_000_001


class TestReplayMode:
    def record_run(self, config, run_id="replay-source"):
        session = Session(run_id, Mode.RECORD, config=config)
        with session:
            losses = train_with_explicit_api(session)
        return run_id, losses

    def test_replay_skips_blocks_and_restores_state(self, flor_config):
        run_id, record_losses = self.record_run(flor_config)
        replay = Session(run_id, Mode.REPLAY, config=flor_config)
        with replay:
            replay_losses = train_with_explicit_api(replay, lr=99.0)
        # The learning rate differs wildly, but the loops were skipped and the
        # state restored from checkpoints, so the logged losses match exactly.
        assert replay_losses == pytest.approx(record_losses, rel=1e-6)

    def test_replay_session_starts_no_threads(self, flor_config):
        """Replay writes no checkpoints, so it owns no spool threads."""
        import threading
        run_id, _ = self.record_run(flor_config, "replay-threads")
        before = threading.active_count()
        replay = Session(run_id, Mode.REPLAY, config=flor_config)
        try:
            assert replay.materializer is None
            assert threading.active_count() == before
            with replay:
                train_with_explicit_api(replay)
                assert threading.active_count() == before
        finally:
            replay.close()
        # A record session still owns its spool.
        record = Session("record-threads", Mode.RECORD, config=flor_config)
        assert record.materializer is not None
        record.close()

    def test_probed_block_is_reexecuted(self, flor_config):
        run_id, record_losses = self.record_run(flor_config, "replay-probed")
        replay = Session(run_id, Mode.REPLAY, config=flor_config,
                         probed_blocks={"train"})
        with replay:
            replay_losses = train_with_explicit_api(replay)
        assert replay_losses == pytest.approx(record_losses, rel=1e-4)

    def test_partitioned_replay_covers_assigned_segment_only(self, flor_config):
        run_id, _ = self.record_run(flor_config, "replay-partitioned")
        segment = assigned_segment(flor_config, run_id, pid=1)
        assert 0 < segment.start < segment.stop
        replay = Session(run_id, Mode.REPLAY, config=flor_config,
                         pid=1, num_workers=2)
        with replay:
            train_with_explicit_api(replay)
        assert replay.iterations_run == list(segment.indices())
        # Only the worker's own iterations were logged.
        assert [r.iteration for r in replay.logs] == list(segment.indices())

    def test_weak_init_uses_nearest_checkpoint(self, flor_config):
        run_id, _ = self.record_run(flor_config, "replay-weak")
        segment = assigned_segment(flor_config, run_id, pid=1)
        replay = Session(run_id, Mode.REPLAY, config=flor_config,
                         pid=1, num_workers=2,
                         init_strategy=InitStrategy.WEAK)
        with replay:
            losses = train_with_explicit_api(replay)
        # Every epoch is checkpointed, so one restore iteration suffices.
        assert len(losses) == 1 + len(segment)

    def test_phase_transitions_during_replay(self, flor_config):
        run_id, _ = self.record_run(flor_config, "replay-phases")
        segment = assigned_segment(flor_config, run_id, pid=1)
        replay = Session(run_id, Mode.REPLAY, config=flor_config,
                         pid=1, num_workers=2)
        phases = []
        with replay:
            for _ in replay.loop(range(4)):
                phases.append(replay.phase)
        # Strong init recomputes every iteration before the segment.
        assert phases == ([Phase.REPLAY_INIT] * segment.start
                          + [Phase.REPLAY_EXEC] * len(segment))

    def test_legacy_composite_index_scheme_respected_on_replay(
            self, flor_config):
        # A run recorded under the legacy composite-index formula replays
        # with the same formula (read from store metadata), so its stored
        # checkpoint indices still line up.
        record = Session("legacy-idx", Mode.RECORD, config=flor_config)
        record._index_scheme = 1
        with record:
            for _ in record.loop(range(2)):
                for _repeat in range(2):
                    sb = record.skipblock("b")
                    sb.should_execute()
                    sb.end(_namespace={}, value=1)

        replay = Session("legacy-idx", Mode.REPLAY, config=flor_config)
        assert replay._index_scheme == 1
        with replay:
            observed = []
            for _ in replay.loop(range(2)):
                for _repeat in range(2):
                    sb = replay.skipblock("b")
                    observed.append(sb.execution_index)
                    sb.should_execute()
                    sb.end(_namespace={}, value=1)
        assert observed == [0, 1, 1, 1_000_001]  # the legacy formula

    def test_invalid_worker_configuration(self, flor_config):
        with pytest.raises(repro.ReplayError):
            Session("x", Mode.REPLAY, config=flor_config, pid=3, num_workers=2)
        with pytest.raises(repro.ReplayError):
            Session("x", Mode.REPLAY, config=flor_config, num_workers=0)


class TestEndFromNamespace:
    def test_missing_names_come_back_as_undefined_on_record(self, flor_config):
        session = Session("ns-run", Mode.RECORD, config=flor_config)
        with session:
            sb = session.skipblock("b")
            sb.should_execute()
            values = sb.end_from_namespace(["known", "unknown"], {"known": 5})
        assert values["known"] == 5
        assert values["unknown"] is UNDEFINED

    def test_loop_scoped_value_restored_from_checkpoint_on_skip(self, flor_config):
        record = Session("ns-record", Mode.RECORD, config=flor_config)
        with record:
            for _ in record.loop(range(1)):
                sb = record.skipblock("b")
                sb.should_execute()
                sb.end_from_namespace(["loss"], {"loss": 0.75})

        replay = Session("ns-record", Mode.REPLAY, config=flor_config)
        with replay:
            for _ in replay.loop(range(1)):
                sb = replay.skipblock("b")
                executed = sb.should_execute()
                values = sb.end_from_namespace(["loss"], {})
        assert not executed
        assert values["loss"] == 0.75


class TestPassthroughApi:
    def test_api_without_session_is_nonintrusive(self):
        assert flor.log("loss", 1.5) == 1.5
        assert list(flor.loop(range(3))) == [0, 1, 2]
        sb = flor.skipblock("anything")
        assert sb.should_execute()
        assert sb.end(x=1, y=2) == (1, 2)
        assert sb.end_from_namespace(["x", "z"], {"x": 1}) == {
            "x": 1, "z": flor.UNDEFINED}
