"""Tests for the log manager and log-file format."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.modes import Mode
from repro.record.logger import LogManager, LogRecord, merge_logs, read_log
from repro.record.recorder import record_source
from repro.replay.replayer import replay_script
from repro.session import Session
from repro.torchlike import Tensor

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def open_manager(tmp_path):
    """``LogManager`` on ``tmp_path/record.log``, closed when the test ends."""
    managers = []

    def factory() -> LogManager:
        managers.append(LogManager(tmp_path / "record.log"))
        return managers[-1]

    yield factory
    for manager in managers:
        manager.close()


class TestLogManager:
    def test_log_and_values(self, open_manager):
        manager = open_manager()
        manager.log("loss", 0.5, iteration=0)
        manager.log("loss", 0.25, iteration=1)
        manager.log("accuracy", 0.9, iteration=1)
        assert manager.values("loss") == [0.5, 0.25]
        assert manager.names() == ["loss", "accuracy"]
        assert len(manager) == 3

    def test_records_carry_sequence_numbers(self, open_manager):
        manager = open_manager()
        manager.log("a", 1)
        manager.log("a", 2)
        sequences = [record.sequence for record in manager]
        assert sequences == [0, 1]

    def test_log_file_is_jsonl_and_readable(self, tmp_path, open_manager):
        path = tmp_path / "record.log"
        manager = open_manager()
        manager.log("loss", 0.125, iteration=3)
        manager.flush()
        records = read_log(path)
        assert len(records) == 1
        assert records[0].name == "loss"
        assert records[0].value == 0.125
        assert records[0].iteration == 3

    def test_numpy_and_tensor_values_normalized(self, tmp_path,
                                                open_manager):
        manager = open_manager()
        manager.log("np_scalar", np.float32(1.5))
        manager.log("np_array", np.array([1.0, 2.0]))
        manager.log("tensor", Tensor(3.25))
        values = {record.name: record.value for record in manager}
        assert values["np_scalar"] == 1.5
        assert values["np_array"] == [1.0, 2.0]
        assert values["tensor"] == 3.25
        # File must still round-trip through JSON.
        manager.flush()
        assert len(read_log(tmp_path / "record.log")) == 3

    def test_arbitrary_objects_stored_as_repr(self, open_manager):
        manager = open_manager()
        manager.log("object", object())
        assert isinstance(manager.records[0].value, str)

    def test_in_memory_manager_without_path(self):
        manager = LogManager(None)
        manager.log("loss", 1.0)
        assert manager.values("loss") == [1.0]

    def test_existing_log_truncated_on_open(self, tmp_path):
        path = tmp_path / "record.log"
        path.write_text('{"name": "stale", "value": 1}\n')
        LogManager(path)
        assert read_log(path) == []

    def test_read_log_missing_file_returns_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.log") == []

    def test_lines_are_buffered_until_flush_or_close(self, tmp_path):
        path = tmp_path / "record.log"
        manager = LogManager(path)
        manager.log("loss", 0.5, iteration=0)
        assert read_log(path) == []          # one handle, not a write per call
        manager.flush()
        assert [r.value for r in read_log(path)] == [0.5]
        manager.log("loss", 0.25, iteration=1)
        manager.close()
        assert [r.value for r in read_log(path)] == [0.5, 0.25]

    def test_close_releases_the_handle_and_a_later_log_appends(self, tmp_path):
        path = tmp_path / "record.log"
        manager = LogManager(path)
        manager.log("a", 1)
        handle = manager._handle
        manager.close()
        manager.close()                      # idempotent
        assert handle.closed and manager._handle is None
        manager.log("a", 2)
        manager.close()
        assert [r.value for r in read_log(path)] == [1, 2]
        assert [r.sequence for r in read_log(path)] == [0, 1]


class TestMergeLogs:
    def test_merge_orders_by_iteration_then_sequence(self):
        worker0 = [LogRecord("loss", 0.1, iteration=0, sequence=0),
                   LogRecord("loss", 0.2, iteration=1, sequence=1)]
        worker1 = [LogRecord("loss", 0.3, iteration=2, sequence=0),
                   LogRecord("loss", 0.4, iteration=3, sequence=1)]
        merged = merge_logs([worker1, worker0])
        assert [record.value for record in merged] == [0.1, 0.2, 0.3, 0.4]

    def test_merge_places_none_iteration_first(self):
        records = [LogRecord("setup", 1, iteration=None, sequence=0),
                   LogRecord("loss", 0.5, iteration=0, sequence=1)]
        merged = merge_logs([records])
        assert merged[0].name == "setup"

    def test_record_json_roundtrip(self):
        record = LogRecord("loss", 0.5, iteration=2, sequence=7)
        assert LogRecord.from_json(record.to_json()) == record


LOGGING_SCRIPT = textwrap.dedent("""
    from repro import api as flor
    state = 0.0
    for epoch in range(6):
        for step in range(3):
            state = state * 0.5 + epoch + step
        flor.log("state", state)
        flor.log("epoch_squared", epoch * epoch)
""")


class TestSessionLogLifetime:
    """The session owns the handle: flushed per iteration, closed with it."""

    @pytest.mark.parametrize("mode", [Mode.RECORD, Mode.REPLAY])
    def test_no_log_handle_outlives_its_session(self, flor_config,
                                                mode):
        with Session("run", Mode.RECORD, config=flor_config):
            pass                             # replay needs a recorded run
        session = Session("run", mode, config=flor_config)
        with session:
            session.log("outside_the_loop", 1)
            handle = session.logs._handle
            assert handle is not None and not handle.closed
        assert handle.closed and session.logs._handle is None
        assert [r.name for r in read_log(session.logs.path)] == [
            "outside_the_loop"]

    def test_each_finished_iteration_is_on_disk(self, flor_config):
        with Session("run", Mode.RECORD, config=flor_config) as session:
            for epoch in session.loop(range(3)):
                session.log("loss", float(epoch))
                on_disk = read_log(session.logs.path)
                assert [r.iteration for r in on_disk] == list(range(epoch))

    def test_abandoned_record_session_loses_at_most_the_open_iteration(
            self, tmp_path):
        """A recorder killed mid-iteration: no close, no interpreter exit."""
        script = textwrap.dedent(f"""
            import os, sys
            sys.path.insert(0, {str(SRC)!r})
            from repro.config import FlorConfig
            from repro.modes import Mode
            from repro.session import Session
            config = FlorConfig(home={str(tmp_path / "home")!r})
            session = Session("abandoned", Mode.RECORD, config=config)
            for epoch in session.loop(range(5)):
                session.log("loss", epoch)
                session.log("accuracy", epoch)
                if epoch == 3:
                    os._exit(0)
        """)
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
        records = read_log(tmp_path / "home" / "abandoned" / "record.log")
        finished = [r for r in records if r.iteration < 3]
        assert [(r.name, r.iteration) for r in finished] == [
            (name, epoch) for epoch in range(3)
            for name in ("loss", "accuracy")]
        assert all(r.iteration == 3 for r in records[len(finished):])

    def test_worker_replay_logs_are_complete_when_the_parent_rereads_them(
            self, flor_config):
        recorded = record_source(LOGGING_SCRIPT, name="workers",
                                 config=flor_config)
        replayed = replay_script(recorded.run_id, num_workers=2,
                                 config=flor_config)
        assert replayed.succeeded
        run_dir = flor_config.run_dir(recorded.run_id)
        reread = merge_logs(read_log(run_dir / f"replay-p{pid}of2.log")
                            for pid in range(2))
        expected = read_log(run_dir / "record.log")
        assert len(expected) == 12
        assert [(r.name, r.iteration, r.value) for r in reread] == [
            (r.name, r.iteration, r.value) for r in expected]
