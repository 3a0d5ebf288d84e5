"""Parallel replay: many workers, no coordination (Section 5.4).

Each worker executes the *same* instrumented replay script; the Flor
generator gives worker ``pid`` its scheduler-issued share of main-loop
iterations, and checkpoints break the cross-iteration dependencies.
Workers neither communicate nor coordinate: every worker derives the same
checkpoint-aligned plan from the store and replays its own segment of it.
On the paper's testbed each worker owned one GPU; here each worker is a
separate OS process.

Fork safety: the parent process may hold a live Flor session (an open
WAL-mode SQLite connection, background spool worker threads) when this
module forks its worker pool.  The pool dispatch quiesces that state
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
from dataclasses import dataclass, field

from ..config import FlorConfig
from ..exceptions import ReplayError
from ..modes import InitStrategy, Mode
from ..record.logger import LogRecord
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
               sample_iterations: list[int] | None = None) -> WorkerResult:
    """Execute one worker's share of a parallel replay (in this process)."""
    start = monotonic()
    session = Session(run_id=run_id, mode=Mode.REPLAY, config=config,
                      pid=pid, num_workers=num_workers,
                      init_strategy=init_strategy,
                      probed_blocks=probed_blocks,
                      sample_iterations=sample_iterations)
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


def _job_args(spec: ReplayJobSpec, config: FlorConfig) -> tuple:
    """:func:`run_worker` arguments of one query replay job."""
    return (spec.run_id, spec.instrumented_source, config, spec.pid,
            spec.num_workers, InitStrategy.WEAK, set(spec.probed_blocks),
            list(spec.sample_iterations))


def _pool_entry(args: tuple) -> WorkerResult:
    """Process-pool entry of every replay worker: :func:`run_worker` on ``args``.

    The result travels back through the pool instead of being re-read from
    the per-worker replay log, so concurrent jobs of the same run cannot
    race on a shared log path.  Its log records are rebuilt from their
    log-line form, so they equal what that replay log holds.
    """
    # A forked child inherits the parent's active-session registration (and
    # a spawned child starts clean either way); drop it so this worker's
    # replay session can activate.
    from .. import session as session_module
    session_module._ACTIVE_SESSION = None
    # A forked child also inherits the parent's telemetry ring buffer;
    # clear it so only THIS worker's spans ship back with the result.
    telemetry.reset_for_worker()
    result = run_worker(*args)
    result.log_records = [LogRecord.from_json(record.to_json())
                          for record in result.log_records]
    result.spans = telemetry.get_tracer().drain()
    return result


def _quiesce_parent_session(start_method: str) -> str:
    """Make the parent's live Flor session safe to fork around.

    Flushes in-flight materializations and the store so children observe a
    consistent manifest.  Every session owns an async spool, and ``fork``
    would copy a process whose spool worker threads no longer exist (fork
    duplicates only the calling thread) while their queue and locks do —
    so select ``spawn`` instead.  Otherwise close the parent's store
    connection; the backend reopens lazily, and children open their own.
    """
    session = get_active_session()
    if session is None:
        return start_method
    session.materializer.flush()
    session.store.flush()
    # A forked child must not inherit buffered log lines it could write again.
    session.logs.flush()
    if start_method == "fork":
        return "spawn"
    session.store.close()
    return start_method


def _run_on_pool(worker_args: list[tuple], pool_size: int, span_name: str,
                 **attributes) -> list[WorkerResult]:
    """Run :func:`_pool_entry` over ``worker_args`` on a fresh process pool.

    Workers run as separate processes (``fork`` start method where
    available and safe, ``spawn`` otherwise) so they are as independent as
    the paper's per-GPU workers.  Results align with ``worker_args``.
    """
    start_method = "fork" if hasattr(os, "fork") else "spawn"
    start_method = _quiesce_parent_session(start_method)
    ctx = mp.get_context(start_method)
    tracer = telemetry.get_tracer()
    with tracer.span(span_name, **attributes) as dispatch:
        with ctx.Pool(processes=pool_size) as pool:
            results = pool.map(_pool_entry, worker_args)
        for result in results:
            # Worker spans come back through the result channel; re-parent
            # their roots under this dispatch span so the merged trace
            # stays one tree.
            tracer.ingest(result.spans, parent_id=dispatch.span_id)
    return results


def run_parallel_replay(run_id: str, instrumented_source: str,
                        config: FlorConfig, num_workers: int,
                        init_strategy: InitStrategy = InitStrategy.STRONG,
                        probed_blocks: set[str] | None = None,
                        sample_iterations: list[int] | None = None,
                        ) -> list[WorkerResult]:
    """Run ``num_workers`` replay workers and collect their results.

    One worker runs in the calling process; more run on a process pool,
    one process per worker.
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

    jobs = [(run_id, instrumented_source, config, pid, num_workers,
             init_strategy, probed)
            for pid in range(num_workers)]
    return _run_on_pool(jobs, num_workers, "replay.parallel",
                        run_id=run_id, workers=num_workers)


# --------------------------------------------------------------------------- #
# Batched replay jobs (the hindsight query engine's execution primitive)
# --------------------------------------------------------------------------- #
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
        return [run_worker(*_job_args(spec, config)) for spec in specs]
    return _run_on_pool([_job_args(spec, config) for spec in specs],
                        max(1, min(processes, len(specs))), "replay.jobs",
                        jobs=len(specs), processes=processes)
