"""Parallel replay: many workers, no coordination (Section 5.4).

Each worker executes the *same* instrumented replay script; the Flor
generator gives worker ``pid`` its scheduler-issued share of main-loop
iterations, and checkpoints break the cross-iteration dependencies.  Under
static scheduling workers neither communicate nor coordinate (every worker
derives the same checkpoint-aligned plan); under dynamic scheduling they
share only a SQLite-backed chunk queue provisioned here.  On the paper's
testbed each worker owned one GPU; here each worker is a separate OS
process.

Fork safety: the parent process may hold a live Flor session (an open
WAL-mode SQLite connection, background spool worker threads) when this
module forks its worker pool.  ``run_parallel_replay`` quiesces that state
first — flushing and closing the parent's store so children do not inherit
an open connection, and switching to the ``spawn`` start method when an
async spool is active, since its worker threads do not survive ``fork``.
Forked children additionally drop the inherited active-session registration
so their own replay session can activate.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..config import FlorConfig
from ..exceptions import ReplayError
from ..modes import InitStrategy, Mode
from ..record.logger import LogRecord, read_log
from ..session import Session, get_active_session
from .. import telemetry
from ..utils.timing import monotonic

__all__ = ["WorkerResult", "ReplayJobSpec", "run_worker",
           "run_parallel_replay", "run_replay_jobs"]


@dataclass
class WorkerResult:
    """Outcome of one replay worker."""

    pid: int
    wall_seconds: float
    iterations: list[int] = field(default_factory=list)
    log_records: list[LogRecord] = field(default_factory=list)
    error: str | None = None
    #: Telemetry spans captured in the worker process (exported dicts),
    #: shipped back through the pool and ingested by the dispatching side.
    spans: list[dict] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None


def run_worker(run_id: str, instrumented_source: str, config: FlorConfig,
               pid: int, num_workers: int, init_strategy: InitStrategy,
               probed_blocks: set[str],
               sample_iterations: list[int] | None = None,
               replay_queue_path: str | None = None) -> WorkerResult:
    """Execute one worker's share of a parallel replay (in this process)."""
    start = monotonic()
    session = Session(run_id=run_id, mode=Mode.REPLAY, config=config,
                      pid=pid, num_workers=num_workers,
                      init_strategy=init_strategy,
                      probed_blocks=probed_blocks,
                      sample_iterations=sample_iterations,
                      replay_queue_path=replay_queue_path)
    exec_globals = {"__name__": "__main__",
                    "__file__": f"replay-p{pid}of{num_workers}.py"}
    try:
        code = compile(instrumented_source, exec_globals["__file__"], "exec")
        with session:
            exec(code, exec_globals)  # noqa: S102 - replaying the user's script
    except Exception:
        return WorkerResult(pid=pid, wall_seconds=monotonic() - start,
                            error=traceback.format_exc())
    return WorkerResult(
        pid=pid,
        wall_seconds=monotonic() - start,
        iterations=list(session.iterations_run),
        log_records=list(session.logs.records),
    )


@dataclass(frozen=True)
class ReplayJobSpec:
    """One batched hindsight-query replay job.

    A job replays one contiguous iteration span of one run as a sampling
    replay (``sample_iterations``), so the hindsight query engine can put
    spans of *different* runs — and disjoint spans of the same run — on one
    process pool.  ``pid``/``num_workers`` only disambiguate the per-worker
    replay log filename between concurrent jobs of the same run; sampling
    replay does not partition by them.
    """

    run_id: str
    instrumented_source: str
    probed_blocks: tuple[str, ...]
    sample_iterations: tuple[int, ...]
    pid: int = 0
    num_workers: int = 1


def _worker_entry(args: tuple) -> dict:
    """Multiprocessing entry point; returns a picklable summary."""
    (run_id, instrumented_source, config, pid, num_workers, init_strategy,
     probed_blocks, replay_queue_path) = args
    # A forked child inherits the parent's active-session registration (and
    # a spawned child starts clean either way); drop it so this worker's
    # replay session can activate.
    from .. import session as session_module
    session_module._ACTIVE_SESSION = None
    # A forked child also inherits the parent's telemetry ring buffer;
    # clear it so only THIS worker's spans ship back through the summary.
    telemetry.reset_for_worker()
    result = run_worker(run_id, instrumented_source, config, pid, num_workers,
                        InitStrategy(init_strategy), set(probed_blocks),
                        replay_queue_path=replay_queue_path)
    return {
        "pid": result.pid,
        "wall_seconds": result.wall_seconds,
        "iterations": result.iterations,
        "error": result.error,
        "spans": telemetry.get_tracer().drain(),
    }


def _quiesce_parent_session(start_method: str) -> str:
    """Make the parent's live Flor session safe to fork around.

    Flushes in-flight materializations and the store so children observe a
    consistent manifest.  With an async spool active, ``fork`` would copy a
    process whose spool worker threads no longer exist (fork duplicates
    only the calling thread) while their queue and locks do — so select
    ``spawn`` instead.  Otherwise close the parent's store connection; the
    backend reopens lazily, and children open their own.
    """
    session = get_active_session()
    if session is None:
        return start_method
    session.materializer.flush()
    session.store.flush()
    # A forked child must not inherit buffered log lines it could write again.
    session.logs.flush()
    if (start_method == "fork"
            and getattr(session.materializer, "spool", None) is not None):
        return "spawn"
    session.store.close()
    return start_method


def _remove_queue_files(queue_path: str | None) -> None:
    if not queue_path:
        return
    for suffix in ("", "-wal", "-shm"):
        try:
            Path(queue_path + suffix).unlink()
        except OSError:
            pass


def run_parallel_replay(run_id: str, instrumented_source: str,
                        config: FlorConfig, num_workers: int,
                        init_strategy: InitStrategy = InitStrategy.STRONG,
                        probed_blocks: set[str] | None = None,
                        sample_iterations: list[int] | None = None,
                        ) -> list[WorkerResult]:
    """Run ``num_workers`` replay workers and collect their results.

    Workers run as separate processes (``fork`` start method where
    available and safe, ``spawn`` otherwise) so they are as independent as
    the paper's per-GPU workers.  Per-worker log records are re-read from
    the per-worker replay logs so nothing has to be pickled back through
    the pool.  For dynamic scheduling this driver provisions the shared
    chunk-queue file that workers pull work from, and removes it afterwards.
    """
    if num_workers < 1:
        raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
    probed = probed_blocks or set()

    if sample_iterations is not None and num_workers != 1:
        raise ReplayError("sampling replay runs on a single worker; pass "
                          "num_workers=1 together with sample_iterations")

    if num_workers == 1:
        return [run_worker(run_id, instrumented_source, config, 0, 1,
                           init_strategy, probed,
                           sample_iterations=sample_iterations)]

    queue_path: str | None = None
    if config.replay_scheduler == "dynamic":
        run_dir = config.run_dir(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        queue_path = str(run_dir
                         / f"replay-queue-{uuid.uuid4().hex[:12]}.sqlite")

    start_method = "fork" if hasattr(os, "fork") else "spawn"
    start_method = _quiesce_parent_session(start_method)
    ctx = mp.get_context(start_method)
    jobs = [(run_id, instrumented_source, config, pid, num_workers,
             init_strategy.value, sorted(probed), queue_path)
            for pid in range(num_workers)]
    tracer = telemetry.get_tracer()
    try:
        with tracer.span("replay.parallel", run_id=run_id,
                         workers=num_workers) as dispatch:
            with ctx.Pool(processes=num_workers) as pool:
                summaries = pool.map(_worker_entry, jobs)
            for summary in summaries:
                # Worker spans come back through the result channel;
                # re-parent their roots under this dispatch span so the
                # merged trace stays one tree.
                tracer.ingest(summary.get("spans") or [],
                              parent_id=dispatch.span_id)
    finally:
        _remove_queue_files(queue_path)

    run_dir = config.run_dir(run_id)
    results = []
    for summary in summaries:
        pid = summary["pid"]
        log_path = run_dir / f"replay-p{pid}of{num_workers}.log"
        results.append(WorkerResult(
            pid=pid,
            wall_seconds=summary["wall_seconds"],
            iterations=summary["iterations"],
            log_records=read_log(log_path),
            error=summary["error"],
            spans=summary.get("spans") or [],
        ))
    return results


# --------------------------------------------------------------------------- #
# Batched replay jobs (the hindsight query engine's execution primitive)
# --------------------------------------------------------------------------- #
def _job_entry(args: tuple) -> dict:
    """Pool entry for one :class:`ReplayJobSpec`; returns a picklable summary.

    Log records travel back through the pool as plain tuples (their values
    are JSON-normalized by the log manager) instead of being re-read from
    per-worker log files, so concurrent jobs of the same run cannot race on
    a shared log path.
    """
    spec, config = args
    from .. import session as session_module
    session_module._ACTIVE_SESSION = None
    telemetry.reset_for_worker()
    result = run_worker(spec.run_id, spec.instrumented_source, config,
                        spec.pid, spec.num_workers, InitStrategy.WEAK,
                        set(spec.probed_blocks),
                        sample_iterations=list(spec.sample_iterations))
    return {
        "pid": result.pid,
        "wall_seconds": result.wall_seconds,
        "iterations": result.iterations,
        "log_records": [(r.name, r.value, r.iteration, r.sequence)
                        for r in result.log_records],
        "error": result.error,
        "spans": telemetry.get_tracer().drain(),
    }


def _summary_to_result(summary: dict) -> WorkerResult:
    return WorkerResult(
        pid=summary["pid"],
        wall_seconds=summary["wall_seconds"],
        iterations=summary["iterations"],
        log_records=[LogRecord(name=name, value=value, iteration=iteration,
                               sequence=sequence)
                     for name, value, iteration, sequence
                     in summary["log_records"]],
        error=summary["error"],
        spans=summary.get("spans") or [],
    )


def run_replay_jobs(jobs: list[ReplayJobSpec], config: FlorConfig,
                    processes: int = 1) -> list[WorkerResult]:
    """Execute a batch of query replay jobs; results align with ``jobs``.

    Jobs are independent sampling replays (each restores its own aligned
    checkpoint), so the batch runs on one process pool of ``processes``
    workers regardless of how many distinct runs it spans — this is how a
    multi-run hindsight query parallelizes across runs.  With one job or
    ``processes <= 1`` the batch runs in the calling process instead (no
    pool spin-up for a cheap query).  Errors are reported per job in
    ``WorkerResult.error``; callers decide whether to raise.
    """
    specs = list(jobs)
    if not specs:
        return []
    # The in-process fast path needs this process session-free: run_worker
    # activates its own replay session, which a live session (a query
    # issued inside a record_session) would reject.  With a session active,
    # even a single job goes through the pool, whose children clear the
    # inherited registration and whose setup quiesces the parent's store.
    if (processes <= 1 or len(specs) == 1) and get_active_session() is None:
        return [run_worker(spec.run_id, spec.instrumented_source, config,
                           spec.pid, spec.num_workers, InitStrategy.WEAK,
                           set(spec.probed_blocks),
                           sample_iterations=list(spec.sample_iterations))
                for spec in specs]
    start_method = "fork" if hasattr(os, "fork") else "spawn"
    start_method = _quiesce_parent_session(start_method)
    ctx = mp.get_context(start_method)
    tracer = telemetry.get_tracer()
    with tracer.span("replay.jobs", jobs=len(specs),
                     processes=processes) as dispatch:
        with ctx.Pool(processes=max(1, min(processes, len(specs)))) as pool:
            summaries = pool.map(_job_entry,
                                 [(spec, config) for spec in specs])
        for summary in summaries:
            tracer.ingest(summary.get("spans") or [],
                          parent_id=dispatch.span_id)
    return [_summary_to_result(summary) for summary in summaries]
