"""The user-facing Flor API.

The paper's pitch is that a model developer only has to ``import flor`` —
everything else (instrumentation, checkpointing, replay) is automatic.  The
equivalent here is::

    from repro import api as flor

    with flor.record_session("cifar-run") as session:
        for epoch in flor.loop(range(epochs)):
            sb = flor.skipblock("train")
            if sb.should_execute():
                for batch in trainloader:
                    ...                      # the expensive inner loop
            net, optimizer = sb.end(net=net, optimizer=optimizer)
            flor.log("val_loss", evaluate(net))

or, for the fully automatic path, hand a plain training script to
:func:`record_script` and later query it with :func:`replay_script`.

Every primitive degrades gracefully when no session is active: ``loop``
iterates normally, ``skipblock`` always executes and never checkpoints, and
``log`` is a no-op that returns its value.  A Flor-instrumented script is
therefore still a valid vanilla training script.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

from .analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from .analysis.lint import lint_path, lint_run, lint_source
from .analysis.purity import ProbeAnalysis, ProbeClass, analyze_probe
from .config import FlorConfig, get_config, set_config
from .modes import InitStrategy, Mode
from .query.api import query
from .query.catalog import JobGroup, RunCatalog, RunEntry
from .query.dataframe import QueryResult, QueryStats
from .query.diff import DiffResult, DiffStats, ValueDrift, diff
from .query.explain import ExplainReport, explain
from .record.skipblock import UNDEFINED
from .record.recorder import RecordResult, record_script, record_source
from .replay.parallel import WorkerResult, run_parallel_replay
from .replay.replayer import ReplayResult, replay_script
from .session import Session, get_active_session
from .storage.lifecycle import (DEFAULT_GC_GRACE_SECONDS, GCReport,
                                PruneReport, RetentionPolicy, StorageStats,
                                collect_garbage, measure_storage,
                                prune_store)
from .storage.checkpoint_store import CheckpointStore
from .utils.naming import new_run_id

__all__ = [
    "log", "loop", "skipblock", "it", "UNDEFINED",
    "record_session", "replay_session",
    "record_script", "record_source", "replay_script",
    "run_parallel_replay", "RecordResult", "ReplayResult", "WorkerResult",
    "query", "QueryResult", "QueryStats", "RunCatalog", "RunEntry",
    "JobGroup",
    "explain", "ExplainReport",
    "diff", "DiffResult", "DiffStats", "ValueDrift",
    "gc", "prune", "storage_stats",
    "RetentionPolicy", "PruneReport", "GCReport", "StorageStats",
    "lint_source", "lint_path", "lint_run",
    "Diagnostic", "DiagnosticReport", "Severity",
    "analyze_probe", "ProbeAnalysis", "ProbeClass",
    "get_config", "set_config", "FlorConfig",
]


# ---------------------------------------------------------------------- #
# Primitives that delegate to the active session
# ---------------------------------------------------------------------- #
def log(name: str, value):
    """Log ``value`` under ``name``; returns ``value`` so it can wrap expressions.

    On record the value goes to the run's record log; on replay it goes to
    the worker's replay log.  Outside any session this is a no-op, so
    sprinkling ``flor.log`` calls does not tie a script to Flor.
    """
    session = get_active_session()
    if session is not None:
        session.log(name, value)
    return value


def loop(iterable: Iterable) -> Iterator:
    """Wrap the main training loop's iterator (the Flor generator).

    On record, iterations are tracked; on replay, they are partitioned
    across parallel workers and preceded by worker initialization.  Outside
    a session this is plain iteration.
    """
    session = get_active_session()
    if session is None:
        return iter(iterable)
    return session.loop(iterable)


#: Alias matching the open-source Flor library's ``flor.it``.
it = loop


class _PassthroughSkipBlock:
    """SkipBlock stand-in used when no session is active: always execute."""

    def __init__(self, block_id: str):
        self.block_id = block_id

    def should_execute(self) -> bool:
        return True

    def end(self, _namespace=None, **named_values) -> tuple:
        return tuple(named_values.values())

    def end_from_namespace(self, names, namespace) -> dict:
        return {name: namespace.get(name, UNDEFINED) for name in names}


def skipblock(block_id: str):
    """Create a SkipBlock activation for the current loop iteration."""
    session = get_active_session()
    if session is None:
        return _PassthroughSkipBlock(block_id)
    return session.skipblock(block_id)


# ---------------------------------------------------------------------- #
# Storage lifecycle
# ---------------------------------------------------------------------- #
def gc(config: FlorConfig | None = None, *, grace_seconds: float = 0.0,
       dry_run: bool = False) -> GCReport:
    """Sweep unreferenced checkpoint payload blobs under the Flor home.

    Mark-and-sweep over the home's shared content-addressed object
    store: the referenced digest set is re-derived from every run's
    manifest at call time, so an interrupted or concurrent sweep can
    strand an orphan for the next pass but never delete a payload any
    run still references.  ``dry_run`` reports what would be swept.
    """
    config = config or get_config()
    return collect_garbage(config.home, grace_seconds=grace_seconds,
                           dry_run=dry_run)


def prune(run_id: str, policy: RetentionPolicy | None = None,
          config: FlorConfig | None = None, *,
          collect: bool = True) -> PruneReport:
    """Apply a retention policy to one recorded run, then (optionally) GC.

    ``policy`` defaults to the configured ``retention_policy``.  Manifest
    rows are deleted first (one backend transaction); shared payload
    blobs are released by the follow-up GC pass once no run references
    them.  Replay of the pruned run stays correct — the scheduler bridges
    from the surviving checkpoints.
    """
    config = config or get_config()
    policy = policy if policy is not None else config.retention_policy
    if policy is None:
        from .exceptions import ConfigError
        raise ConfigError(
            "prune() needs a RetentionPolicy: pass one explicitly or set "
            "FlorConfig.retention_policy")
    run_dir = config.run_dir(run_id)
    # Opening a CheckpointStore creates the directory; guard against a
    # typo'd run id silently materializing an empty junk run.
    from .storage.backends import registered_memory_backends
    registered = {backend.root_dir for backend
                  in registered_memory_backends(config.home)}
    if not run_dir.is_dir() and run_dir not in registered:
        from .exceptions import StorageError
        raise StorageError(
            f"no recorded run {run_id!r} under {config.home}")
    store = CheckpointStore.for_config(run_dir, config)
    try:
        report = prune_store(store, policy)
    finally:
        store.close()
    if collect:
        # Automatic follow-up sweep: keep the shared-home grace (another
        # session may have written blobs it has not yet indexed) but
        # reclaim what this prune just released immediately via hints —
        # time-scoped, so a writer re-adding a released digest after the
        # prune keeps its blob.
        collect_garbage(config.home,
                        grace_seconds=DEFAULT_GC_GRACE_SECONDS,
                        release_hints=report.released_digests,
                        hints_released_at=report.released_at)
    return report


def storage_stats(config: FlorConfig | None = None) -> StorageStats:
    """Logical vs physical storage footprint of the Flor home.

    ``logical_nbytes`` is what every manifest row claims to store;
    ``physical_nbytes`` is what the deduplicated object store actually
    holds; ``dedup_ratio`` is their quotient.
    """
    config = config or get_config()
    return measure_storage(config.home)


# ---------------------------------------------------------------------- #
# Session context managers (the explicit API)
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def record_session(name: str | None = None,
                   config: FlorConfig | None = None) -> Iterator[Session]:
    """Open a record-mode session for explicitly instrumented training code."""
    session = Session(run_id=new_run_id(name), mode=Mode.RECORD,
                      config=config or get_config())
    with session:
        yield session


@contextlib.contextmanager
def replay_session(run_id: str, config: FlorConfig | None = None,
                   pid: int = 0, num_workers: int = 1,
                   init_strategy: InitStrategy | str = InitStrategy.STRONG,
                   probed_blocks: Iterable[str] | None = None
                   ) -> Iterator[Session]:
    """Open a replay-mode session against an existing recorded run."""
    session = Session(run_id=run_id, mode=Mode.REPLAY,
                      config=config or get_config(), pid=pid,
                      num_workers=num_workers,
                      init_strategy=InitStrategy(init_strategy),
                      probed_blocks=probed_blocks)
    with session:
        yield session
