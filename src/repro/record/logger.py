"""The log manager: Flor's view of the user's logging statements.

On record, every ``flor.log(name, value)`` call appends a record to the run's
``record.log``.  On replay, the same calls (plus any hindsight-logging
statements added afterwards) write to a per-worker replay log.  The deferred
correctness check (Section 5.2.2) diffs the two: user-observable state that
was logged in both phases must match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = ["LogRecord", "LogManager", "read_log", "merge_logs",
           "iteration_order_key"]


@dataclass(frozen=True)
class LogRecord:
    """One logged value."""

    name: str
    value: object
    iteration: int | None = None
    sequence: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "value": self.value,
            "iteration": self.iteration,
            "sequence": self.sequence,
        }, default=_jsonify)

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        data = json.loads(line)
        return cls(name=data["name"], value=data["value"],
                   iteration=data.get("iteration"),
                   sequence=data.get("sequence", 0))


def _jsonify(value):
    """Coerce NumPy scalars/arrays and torchlike tensors to JSON-able values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)


class LogManager:
    """Appends log records to a file and keeps them in memory.

    Lines go through one buffered append handle, opened by the first
    :meth:`log`: an open/append/close per call is a syscall round on the
    training thread (and a GIL hand-off to a busy spool worker).  The
    owner calls :meth:`flush` where lines must be on disk — the session
    does at every main-loop iteration end — and :meth:`close` when done.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.records: list[LogRecord] = []
        self._sequence = 0
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate any stale log from a previous run with the same id.
            self.path.write_text("", encoding="utf-8")

    def log(self, name: str, value, iteration: int | None = None) -> LogRecord:
        """Record one value; returns the stored record."""
        record = LogRecord(name=name, value=_normalize(value),
                           iteration=iteration, sequence=self._sequence)
        self._sequence += 1
        self.records.append(record)
        if self.path is not None:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(record.to_json() + "\n")
        return record

    def flush(self) -> None:
        """Push buffered lines to the log file."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and release the file handle (a later ``log`` reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def values(self, name: str) -> list:
        """All logged values for ``name``, in order."""
        return [record.value for record in self.records if record.name == name]

    def names(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record.name not in seen:
                seen.append(record.name)
        return seen

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _normalize(value):
    """Convert values to plain Python types before storing them."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "size", None) == 1:
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, (str, int, float, bool, type(None), list, dict)):
        return value
    return repr(value)


def read_log(path: str | Path) -> list[LogRecord]:
    """Read a log file written by :class:`LogManager`."""
    path = Path(path)
    if not path.exists():
        return []
    records: list[LogRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(LogRecord.from_json(line))
    return records


def iteration_order_key(record: LogRecord) -> tuple:
    """Sort key restoring main-loop iteration order across workers.

    Per-worker ``sequence`` numbers restart at zero in every worker, so raw
    concatenation of worker logs is *not* iteration-ordered; sorting by
    ``(iteration, sequence)`` is, because each iteration is replayed by
    exactly one worker.  Records logged outside the loop sort first.
    """
    return (record.iteration if record.iteration is not None else -1,
            record.sequence)


def merge_logs(logs: Iterable[Iterable[LogRecord]]) -> list[LogRecord]:
    """Merge per-worker replay logs into main-loop iteration order."""
    merged: list[LogRecord] = []
    for worker_records in logs:
        merged.extend(worker_records)
    return sorted(merged, key=iteration_order_key)
