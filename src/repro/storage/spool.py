"""Background spooling: the async materialization pipeline.

:class:`AsyncSpool` is the record-phase hot-path offloader.  ``submit``
enqueues snapshotted checkpoint objects on a **bounded** queue and returns
immediately; a pool of workers (threads, or processes for the CPU-bound
serialize + gzip stage) drains it, writes payloads through the store's
backend, and commits manifest rows in **batches** (one transaction per
batch).  When the queue is full, ``submit`` blocks — backpressure — so
memory stays bounded no matter how fast checkpoints arrive.  ``flush()`` is
the barrier record/replay and tests rely on: after it returns, every
submitted checkpoint is durable *and* indexed.

Durability ordering: a payload is fully written before its manifest row
enters the commit buffer, so a crash mid-spool can orphan payload files but
the manifest never references a missing payload.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..exceptions import StorageError
from ..telemetry import get_metrics, get_tracer
from ..utils.timing import monotonic
from . import compression
from .backends import CheckpointRecord
from .serializer import (SerializedCheckpoint, ValueSnapshot,
                         serialize_checkpoint)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkpoint_store import CheckpointStore

__all__ = ["AsyncSpoolStats", "AsyncSpool"]

#: Worker-pool flavours the async spool supports.
SPOOL_MODES = ("thread", "process")


# --------------------------------------------------------------------------- #
# The async materialization pipeline
# --------------------------------------------------------------------------- #
@dataclass
class AsyncSpoolStats:
    """Aggregate accounting across one async spool's lifetime."""

    submitted: int = 0
    completed: int = 0
    indexed: int = 0
    raw_nbytes: int = 0
    stored_nbytes: int = 0
    manifest_commits: int = 0
    backpressure_waits: int = 0
    backpressure_seconds: float = 0.0
    spool_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)


def _serialize_and_compress(snapshots: list[ValueSnapshot],
                            compress_enabled: bool, codec: str = "gzip",
                            level: int | None = None
                            ) -> tuple[bytes, int, float]:
    """Process-pool work unit: the CPU-bound half of a whole-payload write."""
    serialized = serialize_checkpoint(snapshots)
    payload = serialized.data
    if compress_enabled:
        payload = compression.compress(payload, level=level, codec=codec).data
    return payload, serialized.nbytes, serialized.serialize_seconds


def _serialize_only(snapshots: list[ValueSnapshot]) -> tuple[bytes, int, float]:
    """Process-pool work unit for chunked stores: serialization only.

    Chunk hashing decides which chunks are *new*, and only those get
    compressed — that decision needs the object store, so it stays with
    the committer; offloading compression here would compress every
    chunk, deduped or not.
    """
    serialized = serialize_checkpoint(snapshots)
    return serialized.data, serialized.nbytes, serialized.serialize_seconds


class AsyncSpool:
    """Bounded background pipeline: serialize + compress + write + index.

    Parameters
    ----------
    store:
        The :class:`~repro.storage.checkpoint_store.CheckpointStore` whose
        backend receives payloads and manifest rows.
    workers:
        Size of the worker pool.
    queue_size:
        Bound on in-flight checkpoints; ``submit`` blocks when reached.
    batch_size:
        Manifest rows buffered before one batched commit.
    mode:
        ``"thread"`` — workers do the whole pipeline; ``"process"`` — the
        serialize + gzip stage runs in a process pool (sidestepping the
        GIL) and a committer applies writes and batched commits.
    on_complete:
        Optional ``(block_id, spool_seconds, raw_nbytes)`` callback fired
        as each checkpoint finishes in the background — the adaptive
        controller uses it to refine its materialization-throughput model
        from *real* background timings.
    on_batch_commit:
        Optional zero-argument callback fired (on the committing worker,
        outside the buffer lock) after each batched manifest commit —
        the lifecycle manager's hook for periodic background GC.
    """

    _STOP = object()

    def __init__(self, store: "CheckpointStore", *, workers: int = 2,
                 queue_size: int = 64, batch_size: int = 16,
                 mode: str = "thread",
                 on_complete: Callable[[str, float, int], None] | None = None,
                 on_batch_commit: Callable[[], None] | None = None):
        if workers < 1:
            raise StorageError(f"spool workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise StorageError(
                f"spool queue_size must be >= 1, got {queue_size}")
        if batch_size < 1:
            raise StorageError(
                f"spool batch_size must be >= 1, got {batch_size}")
        if mode not in SPOOL_MODES:
            raise StorageError(
                f"spool mode must be one of {SPOOL_MODES}, got {mode!r}")
        self.store = store
        self.workers = workers
        self.queue_size = queue_size
        self.batch_size = batch_size
        self.mode = mode
        self.stats = AsyncSpoolStats()
        self._on_complete = on_complete
        self._on_batch_commit = on_batch_commit
        self._stats_lock = threading.Lock()
        self._buffer: list[CheckpointRecord] = []
        self._buffer_lock = threading.Lock()
        self._closed = False

        if mode == "thread":
            self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
            self._threads = [
                threading.Thread(target=self._worker_loop, daemon=True,
                                 name=f"flor-spool-{i}")
                for i in range(workers)]
            for thread in self._threads:
                thread.start()
        else:
            self._executor: ProcessPoolExecutor | None = None
            self._slots = threading.BoundedSemaphore(queue_size)
            self._pending = 0
            self._pending_cond = threading.Condition()

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #
    def submit(self, block_id: str, execution_index: int,
               snapshots: list[ValueSnapshot]) -> tuple[float, int]:
        """Enqueue one checkpoint; returns (main-thread seconds, est. bytes).

        Blocks only when the bounded queue is full (backpressure).
        """
        if self._closed:
            raise StorageError("submit() on a closed AsyncSpool")
        start = monotonic()
        estimate = sum(snapshot.nbytes() for snapshot in snapshots)
        with get_tracer().span("spool.enqueue", block_id=block_id,
                               execution_index=execution_index,
                               nbytes=estimate):
            if self.mode == "thread":
                self._enqueue_bounded((block_id, execution_index, snapshots))
            else:
                self._submit_process(block_id, execution_index, snapshots)
        elapsed = monotonic() - start
        with self._stats_lock:
            self.stats.submitted += 1
        metrics = get_metrics()
        if metrics.enabled:
            depth = (self._queue.qsize() if self.mode == "thread"
                     else self._pending)
            metrics.set_gauge("spool.queue_depth", depth)
        return elapsed, estimate

    def _enqueue_bounded(self, item) -> None:
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            blocked = monotonic()
            self._queue.put(item)
            get_metrics().inc("spool.backpressure_waits")
            with self._stats_lock:
                self.stats.backpressure_waits += 1
                self.stats.backpressure_seconds += (
                    monotonic() - blocked)

    # ------------------------------------------------------------------ #
    # Thread mode
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                block_id, execution_index, snapshots = item
                started = monotonic()
                try:
                    # The store's write path routes to delta chunking or
                    # whole-payload encoding; either way the CPU-bound
                    # work happens here, on the worker.
                    with get_tracer().span("spool.materialize",
                                           block_id=block_id,
                                           execution_index=execution_index):
                        serialized = serialize_checkpoint(snapshots)
                        self._persist_serialized(block_id, execution_index,
                                                 serialized, started)
                except Exception as exc:
                    with self._stats_lock:
                        self.stats.errors.append(
                            f"{block_id}[{execution_index}]: {exc}")
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------ #
    # Process mode
    # ------------------------------------------------------------------ #
    def _submit_process(self, block_id, execution_index, snapshots) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if not self._slots.acquire(blocking=False):
            blocked = monotonic()
            self._slots.acquire()
            get_metrics().inc("spool.backpressure_waits")
            with self._stats_lock:
                self.stats.backpressure_waits += 1
                self.stats.backpressure_seconds += (
                    monotonic() - blocked)
        with self._pending_cond:
            self._pending += 1
        started = monotonic()
        if self.store.chunking_active():
            # Delta path: serialize in the pool, chunk + encode on the
            # committer (chunk dedup needs the object store).
            future = self._executor.submit(_serialize_only, snapshots)
            encoded = False
        else:
            future = self._executor.submit(
                _serialize_and_compress, snapshots, self.store.compress,
                self.store.codec, self.store.codec_level)
            encoded = True
        future.add_done_callback(
            lambda fut: self._commit_future(block_id, execution_index, fut,
                                            started, encoded))

    def _commit_future(self, block_id, execution_index, future, started,
                       encoded) -> None:
        try:
            payload, raw, serialize_seconds = future.result()
            if encoded:
                self._persist_encoded(block_id, execution_index, payload,
                                      raw, serialize_seconds, started)
            else:
                self._persist_serialized(
                    block_id, execution_index,
                    SerializedCheckpoint(data=payload, nbytes=raw,
                                         serialize_seconds=serialize_seconds),
                    started)
        except Exception as exc:
            with self._stats_lock:
                self.stats.errors.append(
                    f"{block_id}[{execution_index}]: {exc}")
        finally:
            self._slots.release()
            with self._pending_cond:
                self._pending -= 1
                self._pending_cond.notify_all()

    # ------------------------------------------------------------------ #
    # Shared persistence path: payload first, manifest row batched
    # ------------------------------------------------------------------ #
    def _persist_serialized(self, block_id: str, execution_index: int,
                            serialized: SerializedCheckpoint,
                            started: float) -> None:
        """Route one serialized payload through the store's write path."""
        record = self.store.write_payload(block_id, execution_index,
                                          serialized)
        self._finish(record, started)

    def _persist_encoded(self, block_id: str, execution_index: int,
                         payload: bytes, raw_nbytes: int,
                         serialize_seconds: float, started: float) -> None:
        """Persist a payload the process pool already encoded."""
        record = self.store.write_encoded(block_id, execution_index, payload,
                                          raw_nbytes, serialize_seconds)
        self._finish(record, started)

    def _finish(self, record: CheckpointRecord, started: float) -> None:
        spool_seconds = monotonic() - started
        with self._stats_lock:
            self.stats.completed += 1
            self.stats.raw_nbytes += record.raw_nbytes
            self.stats.stored_nbytes += record.stored_nbytes
            self.stats.spool_seconds += spool_seconds
        self._buffer_record(record)
        if self._on_complete is not None:
            try:
                self._on_complete(record.block_id, spool_seconds,
                                  record.raw_nbytes)
            except Exception as exc:  # pragma: no cover - callback bug guard
                with self._stats_lock:
                    self.stats.errors.append(f"on_complete callback: {exc}")

    def _buffer_record(self, record: CheckpointRecord) -> None:
        batch: list[CheckpointRecord] | None = None
        with self._buffer_lock:
            self._buffer.append(record)
            if len(self._buffer) >= self.batch_size:
                batch, self._buffer = self._buffer, []
        # Commit outside the buffer lock so other workers keep buffering
        # (and the post-commit lifecycle hook never stalls them).  The
        # flush() barrier still covers this: the worker's task_done /
        # pending-decrement happens after _persist returns.
        if batch:
            self._commit(batch)

    def _commit(self, batch: list[CheckpointRecord]) -> None:
        """Commit one batch of manifest rows in one backend transaction."""
        with get_tracer().span("spool.batch_commit", rows=len(batch)):
            self.store.backend.index_many(batch)
        with self._stats_lock:
            self.stats.manifest_commits += 1
            self.stats.indexed += len(batch)
        if self._on_batch_commit is not None:
            try:
                self._on_batch_commit()
            except Exception as exc:  # pragma: no cover - callback bug guard
                with self._stats_lock:
                    self.stats.errors.append(f"on_batch_commit callback: {exc}")

    # ------------------------------------------------------------------ #
    # Barriers
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Block until every submitted checkpoint is durable AND indexed."""
        with get_tracer().span("spool.flush"):
            if self.mode == "thread":
                self._queue.join()
            else:
                with self._pending_cond:
                    self._pending_cond.wait_for(lambda: self._pending == 0)
            with self._buffer_lock:
                batch, self._buffer = self._buffer, []
            if batch:
                self._commit(batch)

    def close(self) -> None:
        """Flush, then stop the worker pool.  Idempotent."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        if self.mode == "thread":
            for _ in self._threads:
                self._queue.put(self._STOP)
            for thread in self._threads:
                thread.join(timeout=30.0)
        elif self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "AsyncSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
