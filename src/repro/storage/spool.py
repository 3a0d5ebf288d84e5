"""Background spooling: the async materialization pipeline.

:class:`AsyncSpool` is the record-phase hot-path offloader.  ``submit``
enqueues snapshotted checkpoint objects on a **bounded** queue and returns
immediately; a pool of worker threads drains it, serializes, encodes and
writes payloads through the store's backend, and commits manifest rows in
**batches** (one transaction per batch).  When the queue is full,
``submit`` blocks — backpressure — so memory stays bounded no matter how
fast checkpoints arrive.  ``flush()`` is the barrier record/replay and
tests rely on: after it returns, every submitted checkpoint is durable
*and* indexed.  It is the only way a checkpoint is materialized during
record.

Durability ordering: a payload is fully written before its manifest row
enters the commit buffer, so a crash mid-spool can orphan payload files but
the manifest never references a missing payload.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..exceptions import StorageError
from ..telemetry import get_metrics, get_tracer
from ..utils.timing import monotonic
from .backends import CheckpointRecord
from .serializer import ValueSnapshot, serialize_checkpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkpoint_store import CheckpointStore

__all__ = ["AsyncSpoolStats", "AsyncSpool"]

# --------------------------------------------------------------------------- #
# The async materialization pipeline
# --------------------------------------------------------------------------- #
@dataclass
class AsyncSpoolStats:
    """Aggregate accounting across one async spool's lifetime."""

    submitted: int = 0
    #: Seconds the submitting (training) thread spent in ``submit``.
    main_thread_seconds: float = 0.0
    completed: int = 0
    indexed: int = 0
    raw_nbytes: int = 0
    stored_nbytes: int = 0
    manifest_commits: int = 0
    backpressure_waits: int = 0
    backpressure_seconds: float = 0.0
    spool_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)


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
        self.store = store
        self.workers = workers
        self.queue_size = queue_size
        self.batch_size = batch_size
        self.stats = AsyncSpoolStats()
        self._on_complete = on_complete
        self._on_batch_commit = on_batch_commit
        self._stats_lock = threading.Lock()
        self._buffer: list[CheckpointRecord] = []
        self._buffer_lock = threading.Lock()
        self._closed = False
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"flor-spool-{i}")
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

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
            self._enqueue_bounded((block_id, execution_index, snapshots))
        elapsed = monotonic() - start
        with self._stats_lock:
            self.stats.submitted += 1
            self.stats.main_thread_seconds += elapsed
        metrics = get_metrics()
        if metrics.enabled:
            metrics.set_gauge("spool.queue_depth", self._queue.qsize())
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
    # Workers: payload first, manifest row batched
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
                        record = self.store.write_payload(
                            block_id, execution_index,
                            serialize_checkpoint(snapshots))
                        self._finish(record, started)
                except Exception as exc:
                    with self._stats_lock:
                        self.stats.errors.append(
                            f"{block_id}[{execution_index}]: {exc}")
            finally:
                self._queue.task_done()

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
        # flush() barrier still covers this: the worker's task_done
        # happens after _finish returns.
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
            self._queue.join()
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
        for _ in self._threads:
            self._queue.put(self._STOP)
        for thread in self._threads:
            thread.join(timeout=30.0)

    def __enter__(self) -> "AsyncSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
