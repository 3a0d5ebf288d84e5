"""The Flor session: shared state of one record or replay execution.

A :class:`Session` owns the run directory, the checkpoint store, the log
manager, the adaptive-checkpointing controller and (in record mode) the
background materializer, and exposes the three primitives user code (or
instrumented code) interacts with:

* ``session.loop(iterable)`` — the Flor generator wrapping the main loop,
* ``session.skipblock(block_id)`` — a SkipBlock activation,
* ``session.log(name, value)`` — a logging statement routed to the record
  or replay log.

Exactly one session is *active* per process at a time; the module-level API
in :mod:`repro.api` delegates to it.
"""

from __future__ import annotations

import getpass
import platform
import time
import warnings
from pathlib import Path
from typing import Iterable, Iterator

from .analysis.instrument import BlockSpec
from .config import FlorConfig, get_config
from .exceptions import FlorError, RecordError, ReplayError
from .modes import InitStrategy, Mode, Phase
from .record.adaptive import AdaptiveController
from .record.logger import LogManager, read_log
from .record.materializer import create_materializer
from .record.skipblock import SkipBlock
from .storage.checkpoint_store import CheckpointStore
from .storage.spool import AsyncSpool
from . import telemetry

__all__ = ["Session", "get_active_session", "require_active_session"]

_ACTIVE_SESSION: "Session | None" = None


def get_active_session() -> "Session | None":
    """The currently active session, or None."""
    return _ACTIVE_SESSION


def require_active_session() -> "Session":
    """The currently active session, raising if none is active."""
    if _ACTIVE_SESSION is None:
        raise FlorError(
            "no active Flor session; wrap your training code in "
            "`with flor.record_session(...)` or run it through "
            "`flor.record_script` / `flor.replay_script`")
    return _ACTIVE_SESSION


class Session:
    """State and lifecycle of one record or replay execution."""

    def __init__(self, run_id: str, mode: Mode,
                 config: FlorConfig | None = None,
                 pid: int = 0, num_workers: int = 1,
                 init_strategy: InitStrategy = InitStrategy.STRONG,
                 probed_blocks: Iterable[str] | None = None,
                 sample_iterations: Iterable[int] | None = None):
        self.config = config or get_config()
        self.run_id = run_id
        self.mode = Mode(mode)
        self.pid = pid
        self.num_workers = num_workers
        self.init_strategy = InitStrategy(init_strategy)
        self.probed_blocks: set[str] = set(probed_blocks or ())
        self.sample_iterations: list[int] | None = (
            sorted(set(sample_iterations)) if sample_iterations is not None
            else None)

        if self.num_workers < 1:
            raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
        if not 0 <= self.pid < self.num_workers:
            raise ReplayError(f"pid {pid} out of range for {num_workers} workers")

        telemetry.enable_from_config(self.config)
        self._tracer = telemetry.get_tracer()
        self._session_span = self._tracer.span(
            f"{self.mode.value}.session", run_id=run_id, worker=pid)
        self._iteration_span = telemetry.NOOP_SPAN

        self.run_dir: Path = self.config.run_dir(run_id)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.store = CheckpointStore.for_config(self.run_dir, self.config)

        if self.mode is Mode.RECORD:
            log_path = self.run_dir / "record.log"
            self.phase = Phase.RECORD
        else:
            log_path = self.run_dir / f"replay-p{pid}of{num_workers}.log"
            self.phase = Phase.REPLAY_EXEC
        self.logs = LogManager(log_path)

        self.adaptive = AdaptiveController(
            epsilon=self.config.epsilon,
            scaling_factor=self.config.scaling_factor,
            enabled=self.config.adaptive_checkpointing)
        # Storage lifecycle: retention + payload GC, run on the spool's
        # background workers (gc_interval) and at session close.
        self.lifecycle = None
        if self.mode is Mode.RECORD and (
                self.config.retention_policy is not None
                or self.config.gc_interval is not None):
            from .storage.lifecycle import LifecycleManager
            self.lifecycle = LifecycleManager(
                self.store, policy=self.config.retention_policy,
                gc_interval=self.config.gc_interval)

        # Only record writes checkpoints, so only a record session owns a
        # spool (and its worker threads).  Real background materialization
        # timings feed the adaptive controller's throughput model (Section
        # 5.3.2); batched manifest commits drive periodic lifecycle passes
        # when gc_interval is set.
        self.materializer: AsyncSpool | None = None
        if self.mode is Mode.RECORD:
            on_batch_commit = None
            if (self.lifecycle is not None
                    and self.config.gc_interval is not None):
                on_batch_commit = self.lifecycle.on_manifest_commit
            self.materializer = create_materializer(
                "spool", self.store, config=self.config,
                on_complete=self.adaptive.observe_background_materialization,
                on_batch_commit=on_batch_commit)

        self.block_specs: dict[str, BlockSpec] = {}
        # Composite execution-index scheme: 2 offsets composites by
        # (iteration + 1) * 1_000_000 so iteration 0's repeats can never
        # alias a later iteration's plain index; 1 is the legacy formula.
        # Replay honours whatever scheme the run was recorded under.
        self._index_scheme = 2
        if self.mode is Mode.REPLAY:
            stored = self.store.get_metadata("blocks", {})
            self.block_specs = {bid: BlockSpec.from_dict(spec)
                                for bid, spec in stored.items()}
            self._index_scheme = int(
                self.store.get_metadata("execution_index_scheme", 1))

        # Main-loop bookkeeping.
        self.current_iteration: int | None = None
        self.main_loop_total: int | None = None
        self.iterations_run: list[int] = []
        self.work_segment = None  # set by _replay_loop to a WorkSegment
        self.scheduler = None  # set by _replay_loop to a ReplayScheduler
        self._iteration_occurrences: dict[str, int] = {}
        self._global_counters: dict[str, int] = {}
        self._loop_block_ids: set[str] = set()
        self._weak_restore_index: int | None = None
        self._started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------ #
    # User-facing primitives
    # ------------------------------------------------------------------ #
    def log(self, name: str, value) -> None:
        """Log a value to the record or replay log.

        During replay initialization the surrounding code re-runs only to
        rebuild state, so its log statements are suppressed — each parallel
        worker emits only its own partition of the logs (Section 5.4.3).
        """
        if self.phase is Phase.REPLAY_INIT:
            return
        self.logs.log(name, value, iteration=self.current_iteration)

    def skipblock(self, block_id: str) -> SkipBlock:
        """Create a SkipBlock activation for the current loop iteration."""
        return SkipBlock(self, block_id)

    def loop(self, iterable: Iterable) -> Iterator:
        """The Flor generator (Figure 9) wrapping the main training loop.

        On record it simply tracks the iteration index.  On replay it asks
        the checkpoint-aware scheduler for this worker's segment, runs the
        scheduler's initialization plan with SkipBlocks in restore mode, and
        then replays the segment in execution mode.
        """
        items = list(iterable)
        self.main_loop_total = len(items)
        if self.mode is Mode.RECORD:
            yield from self._record_loop(items)
        else:
            yield from self._replay_loop(items)

    def _record_loop(self, items: list) -> Iterator:
        for index, item in enumerate(items):
            self._begin_iteration(index)
            try:
                yield item
            finally:
                self._end_iteration(index)

    def _replay_loop(self, items: list) -> Iterator:
        # Imported here (not at module scope) to avoid a cycle: the replay
        # package's drivers import Session themselves.
        from .replay.scheduler import ReplayScheduler

        if self.sample_iterations is not None:
            yield from self._sampling_replay_loop(items)
            return

        scheduler = ReplayScheduler.for_session(self, len(items))
        self.scheduler = scheduler
        segment = scheduler.worker_segment(self.pid)
        self.work_segment = segment
        if len(segment) == 0:
            return

        plan = scheduler.init_plan(
            segment.start, strong=self.init_strategy is InitStrategy.STRONG)
        if len(plan):
            self.phase = Phase.REPLAY_INIT
            # Only the plan's designated restore iteration may fall back to
            # an earlier checkpoint; the gap iterations after it must
            # recompute (or exact-restore), never restore stale state.
            self._weak_restore_index = plan.restore_index
            try:
                for index in plan.indices():
                    self._begin_iteration(index)
                    try:
                        yield items[index]
                    finally:
                        self._end_iteration(index)
            finally:
                self._weak_restore_index = None
                self.phase = Phase.REPLAY_EXEC

        for index in segment.indices():
            self._begin_iteration(index)
            try:
                yield items[index]
            finally:
                self._end_iteration(index)

    def _sampling_replay_loop(self, items: list) -> Iterator:
        """Sampling replay (the Section 8 proof of concept).

        Checkpoints give random access to any main-loop iteration, so replay
        can visit only a sampled subset: each sampled iteration ``k`` is
        preceded, when needed, by one iteration in replay-initialization mode
        (weak initialization from the nearest checkpoint at ``k - 1``) to
        rebuild its starting state.
        """
        wanted = [index for index in self.sample_iterations or []
                  if 0 <= index < len(items)]
        # Random access relies on restoring the nearest available checkpoint,
        # i.e. weak initialization semantics for the init iterations.
        self.init_strategy = InitStrategy.WEAK
        previous: int | None = None
        for index in wanted:
            if index > 0 and previous != index - 1:
                self.phase = Phase.REPLAY_INIT
                # Sampling's random access deliberately accepts the nearest
                # earlier checkpoint for its single init iteration.
                self._weak_restore_index = index - 1
                try:
                    self._begin_iteration(index - 1)
                    try:
                        yield items[index - 1]
                    finally:
                        self._end_iteration(index - 1)
                finally:
                    self._weak_restore_index = None
                    self.phase = Phase.REPLAY_EXEC
            self._begin_iteration(index)
            try:
                yield items[index]
            finally:
                self._end_iteration(index)
            previous = index

    # ------------------------------------------------------------------ #
    # Iteration bookkeeping
    # ------------------------------------------------------------------ #
    def _begin_iteration(self, index: int) -> None:
        self.current_iteration = index
        self._iteration_occurrences.clear()
        if self._tracer.enabled:
            name = ("record.iteration" if self.mode is Mode.RECORD
                    else "replay.init" if self.phase is Phase.REPLAY_INIT
                    else "replay.iteration")
            self._iteration_span = self._tracer.start(name, iteration=index)

    def _end_iteration(self, index: int) -> None:
        if self.phase is not Phase.REPLAY_INIT:
            self.iterations_run.append(index)
        # An abandoned session loses at most the open iteration's lines.
        self.logs.flush()
        self.current_iteration = None
        self._iteration_occurrences.clear()
        self._iteration_span.end()
        self._iteration_span = telemetry.NOOP_SPAN

    def next_execution_index(self, block_id: str) -> int:
        """Execution index of a SkipBlock activation.

        Inside the main loop the index is the loop iteration (epoch), so the
        record and replay phases agree on it even when replay jumps straight
        to a later epoch.  A block entered more than once in the same
        iteration gets a composite index; blocks outside the main loop use a
        simple per-block counter.
        """
        if self.current_iteration is not None:
            self._loop_block_ids.add(block_id)
            occurrence = self._iteration_occurrences.get(block_id, 0)
            self._iteration_occurrences[block_id] = occurrence + 1
            if occurrence == 0:
                return self.current_iteration
            # Scheme 2 starts composite indices at 1_000_000 for *every*
            # iteration (iteration + 1, not iteration), so iteration 0's
            # repeats can never alias iteration 1's plain index — the
            # scheduler filters composites with that threshold when
            # computing alignment.  Replay of a run recorded under the
            # legacy scheme keeps the legacy formula so stored checkpoint
            # indices still line up.
            offset = 1 if self._index_scheme >= 2 else 0
            return (self.current_iteration + offset) * 1_000_000 + occurrence
        counter = self._global_counters.get(block_id, 0)
        self._global_counters[block_id] = counter + 1
        return counter

    def allows_weak_restore(self, execution_index: int) -> bool:
        """Whether a replay-init SkipBlock may restore a *nearest-earlier*
        checkpoint at ``execution_index``.

        Only the initialization plan's designated restore iteration may —
        anywhere else a nearest-earlier fallback would silently rewind state
        (the weak-init divergence bug); those activations must recompute or
        exact-restore instead.
        """
        return (self._weak_restore_index is not None
                and execution_index == self._weak_restore_index)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def register_blocks(self, blocks: dict[str, BlockSpec]) -> None:
        """Attach instrumentation metadata (record mode)."""
        self.block_specs.update(blocks)

    def record_log_records(self):
        """The record-phase log of this run (read from disk)."""
        self.logs.flush()
        return read_log(self.run_dir / "record.log")

    def close(self) -> None:
        """Flush background work and persist run metadata."""
        if self._closed:
            return
        self._closed = True
        self.logs.close()
        if self.materializer is not None:
            self.materializer.close()
        if self.mode is Mode.RECORD:
            self.store.set_metadata("run_id", self.run_id)
            self.store.set_metadata("mode", self.mode.value)
            # Distributed record: a worker run id (``<job>@<rank>``) carries
            # its logical-job membership; persist it so the catalog's merged
            # job view never has to re-parse ids from directory names.
            from .utils.naming import split_worker_run_id
            job_id, rank = split_worker_run_id(self.run_id)
            if rank is not None:
                self.store.set_metadata("worker",
                                        {"job_id": job_id, "rank": rank})
            self.store.set_metadata("execution_index_scheme",
                                    self._index_scheme)
            self.store.set_metadata(
                "blocks", {bid: spec.to_dict()
                           for bid, spec in self.block_specs.items()})
            self.store.set_metadata("main_loop_total", self.main_loop_total)
            self.store.set_metadata("iterations_run", self.iterations_run)
            self.store.set_metadata("adaptive_summary", self.adaptive.summary())
            # Scheduler-facing metadata: which blocks live inside the main
            # loop (alignment) and what iterations cost (balancing).
            self.store.set_metadata("loop_blocks",
                                    sorted(self._loop_block_ids))
            self.store.set_metadata("iteration_stats",
                                    self.adaptive.iteration_stats())
            # Catalog-facing metadata: which value names this run logged, so
            # the hindsight query planner can resolve logged values without
            # scanning record.log for every cataloged run.
            self.store.set_metadata("logged_values", self.logs.names())
            stats = self.materializer.stats
            self.store.set_metadata("materializer", {
                "strategy": "spool",
                "submitted": stats.submitted,
                "main_thread_seconds": stats.main_thread_seconds,
                "spool": {
                    "workers": self.materializer.workers,
                    "completed": stats.completed,
                    "manifest_commits": stats.manifest_commits,
                    "backpressure_waits": stats.backpressure_waits,
                    "backpressure_seconds": stats.backpressure_seconds,
                    "spool_seconds": stats.spool_seconds,
                },
                "errors": list(stats.errors),
            })
            if stats.errors and not self.config.strict_consistency:
                warnings.warn(self._failed_writes_message(), stacklevel=2)
            self.store.set_metadata("storage_backend",
                                    self.store.backend.name)
            self.store.set_metadata("environment", {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "user": _safe_user(),
                "started_at": self._started_at,
                "wall_seconds": time.time() - self._started_at,
            })
            if self.lifecycle is not None:
                # The spool has flushed (materializer.close above), so
                # nothing of *ours* is in flight.  The manager's default
                # grace still applies — the object store is shared, and a
                # concurrently recording session may have written blobs
                # it has not yet indexed — while whatever our own prunes
                # released sweeps immediately via release hints.
                self.lifecycle.run_once()
                self.store.set_metadata("lifecycle",
                                        self.lifecycle.summary())
        elif (self.config.telemetry
                and self.adaptive.restore_observations > 0):
            # Replay measured real restore times; fold the EWMA back into
            # the run's iteration_stats so the next query plan / replay
            # schedule prices restores from observation, not the
            # scaling-factor prior.  Last-writer-wins across concurrent
            # workers is fine — every worker's EWMA measures the same
            # storage path.
            stats = self.store.get_metadata("iteration_stats", {}) or {}
            stats["observed_restore_seconds"] = round(
                self.adaptive.restore_ewma, 6)
            stats["restore_observations"] = (
                self.adaptive.restore_observations)
            self.store.set_metadata("iteration_stats", stats)
        self._session_span.end()
        if self.mode is Mode.RECORD and self._tracer.enabled:
            # Persist the flight-recorder capture next to the run, in the
            # same metadata channel as iteration_stats.  The buffer is
            # process-global (bounded), so the document may also carry
            # spans from adjacent activity in this process.
            self.store.set_metadata(
                telemetry.METADATA_KEY,
                telemetry.current_document(meta={"run_id": self.run_id}))
        self.store.flush()
        if (self.mode is Mode.RECORD and self.materializer.stats.errors
                and self.config.strict_consistency):
            raise RecordError(self._failed_writes_message())

    def _failed_writes_message(self) -> str:
        errors = self.materializer.stats.errors
        return (f"run {self.run_id!r}: {len(errors)} checkpoint write(s) "
                f"failed in the background and were not recorded; first: "
                f"{errors[0]} (replay recomputes those executions)")

    # ------------------------------------------------------------------ #
    # Activation / context manager protocol
    # ------------------------------------------------------------------ #
    def activate(self) -> "Session":
        global _ACTIVE_SESSION
        if _ACTIVE_SESSION is not None and _ACTIVE_SESSION is not self:
            raise RecordError(
                "another Flor session is already active in this process")
        _ACTIVE_SESSION = self
        return self

    def deactivate(self) -> None:
        global _ACTIVE_SESSION
        if _ACTIVE_SESSION is self:
            _ACTIVE_SESSION = None

    def __enter__(self) -> "Session":
        return self.activate()

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        finally:
            self.deactivate()

    def __repr__(self) -> str:
        return (f"Session(run_id={self.run_id!r}, mode={self.mode.value}, "
                f"pid={self.pid}/{self.num_workers})")


def _safe_user() -> str:
    try:
        return getpass.getuser()
    except (KeyError, OSError):  # pragma: no cover - containerized edge case
        return "unknown"
