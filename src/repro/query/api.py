"""The declarative hindsight query entry point: ``repro.query(...)``.

One call answers "fetch these values at these iterations across these
runs" as cheaply as the system can::

    import repro

    result = repro.query(values=["loss", "grad_norm"],
                         runs=None,                  # every cataloged run
                         iterations=slice(10, 50),
                         source="train_with_probes.py")
    result.pivot("grad_norm")       # {run_id: {iteration: value}}
    result.stats.summary()          # where every cell came from

The pipeline: the :class:`~repro.query.catalog.RunCatalog` selects runs,
the cost-based :mod:`~repro.query.planner` resolves each cell to logged /
memoized / replay, the :mod:`~repro.query.executor` runs the coalesced
replay spans on one process pool across runs, and the
:class:`~repro.query.memo.MemoCache` writes every replayed value back
through the storage backend so the next query skips the recompute.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .. import telemetry
from ..analysis.instrument import BlockSpec, instrument_source
from ..analysis.purity import (ProbeAnalysis, SAFE_BUILTINS,
                               evaluate_pure_logged)
from ..config import FlorConfig, get_config
from ..exceptions import QueryError
from ..record.logger import LogRecord, read_log
from ..record.recorder import ORIGINAL_SOURCE_NAME
from ..replay.probe import assert_probes_safe, detect_probed_blocks
from ..replay.scheduler import load_iteration_costs
from ..storage.checkpoint_store import CheckpointStore
from ..utils.timing import monotonic
from .catalog import RunCatalog, RunEntry
from .dataframe import QueryResult, QueryRow, QueryStats
from .executor import ExecutionOutcome, execute_span_jobs
from .memo import MemoCache, source_digest
from .planner import QueryPlan, balance_spans, plan_run

__all__ = ["PreparedQuery", "assemble_result", "planned_rows",
           "prepare_query", "query", "replay_rows"]


@dataclass
class PreparedQuery:
    """Everything the planner decided, before a single replay job runs.

    The shared output of the planning stage: :func:`query` executes it,
    :func:`repro.query.explain.explain` reports it without executing, and
    the multi-tenant service (:mod:`repro.service`) coalesces identical
    in-flight executions on :meth:`dedup_digest` and streams partial
    results span by span.  Memo caches stay open (their stores reopen
    lazily); call :meth:`close` when done with them.
    """

    config: FlorConfig
    names: tuple[str, ...]
    entries: list[RunEntry]
    plan: QueryPlan
    memos: dict[str, MemoCache] = field(default_factory=dict)
    sources_by_run: dict[str, str] = field(default_factory=dict)
    probed_by_run: dict[str, tuple[str, ...]] = field(default_factory=dict)
    aligned_by_run: dict[str, Sequence[int]] = field(default_factory=dict)
    costs_by_run: dict[str, object] = field(default_factory=dict)
    planner_seconds: float = 0.0
    processes: int = 1
    should_memoize: bool = True

    @property
    def requested_cells(self) -> int:
        return sum(len(run_plan.names) * len(run_plan.wanted_iterations)
                   for run_plan in self.plan.runs)

    def balanced_jobs(self, target_jobs: int | None = None
                      ) -> list[tuple[str, "object"]]:
        """The plan's replay spans, split to fill ``target_jobs`` workers."""
        return balance_spans(self.plan.span_jobs, self.aligned_by_run,
                             self.costs_by_run,
                             target_jobs=(self.processes
                                          if target_jobs is None
                                          else target_jobs))

    def dedup_digest(self) -> str:
        """Digest under which identical prepared queries coalesce.

        Two prepared queries share a digest iff their *normalized plans*
        are equal: the same requested value names, the same run set, the
        same wanted iterations per run, and the same probe-source digest
        per run (the memo key — already normalized for whitespace and
        blank lines).  Anything else (client id, planner timings, worker
        counts) is execution detail and deliberately excluded, so the
        service can serve concurrent identical queries from one
        execution.
        """
        document = {
            "names": sorted(self.names),
            "runs": [
                {
                    "run_id": run_plan.run_id,
                    "iterations": sorted(run_plan.wanted_iterations),
                    "source_digest": self.memos[run_plan.run_id].digest,
                }
                for run_plan in sorted(self.plan.runs,
                                       key=lambda plan: plan.run_id)
            ],
        }
        canonical = json.dumps(document, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def close(self) -> None:
        for memo in self.memos.values():
            memo.store.close()


def query(values: str | Sequence[str],
          runs: str | Iterable[str] | None = None,
          iterations: int | slice | Iterable[int] | None = None,
          source: str | Path | None = None,
          workload: str | None = None,
          config: FlorConfig | None = None,
          workers: int | None = None,
          memoize: bool | None = None,
          catalog: RunCatalog | None = None) -> QueryResult:
    """Fetch ``values`` at ``iterations`` across ``runs``, cheapest-first.

    Parameters
    ----------
    values:
        Value name or names (the first argument of ``flor.log``).
    runs:
        Run id(s), an id prefix, or None for every cataloged run under the
        configured Flor home.
    iterations:
        Main-loop iterations to fetch: an index, a ``slice`` (applied to
        each run's recorded range), an iterable of indices, or None for
        every recorded iteration.
    source:
        The probe source (script text or path) containing the hindsight
        logging statements that compute never-logged values.  Without it,
        only record-time logs and prior memoized replays can answer; cells
        needing recompute are reported missing rather than replayed (a
        verbatim replay of the recorded script cannot produce new values).
    workload:
        Restrict to runs recorded under this workload name.
    workers:
        Process-pool size for replay jobs (default
        ``FlorConfig.query_workers``).
    memoize:
        Write replayed values back to storage (default
        ``FlorConfig.query_memoize``).
    catalog:
        Reuse an already-open :class:`RunCatalog` (skips the home scan).
    """
    started = monotonic()
    config = config or get_config()
    telemetry.enable_from_config(config)
    tracer = telemetry.get_tracer()
    with tracer.span("query") as query_span:
        with tracer.span("query.plan"):
            prepared = prepare_query(values, runs, iterations, source,
                                     workload, config, workers, memoize,
                                     catalog)
        query_span.set(runs=len(prepared.entries),
                       values=",".join(prepared.names))

        jobs = prepared.balanced_jobs()
        with tracer.span("query.execute", jobs=len(jobs)):
            outcome = execute_span_jobs(jobs, prepared.sources_by_run,
                                        prepared.probed_by_run, config,
                                        processes=prepared.processes)

        result = assemble_result(prepared, outcome, started=started)
        query_span.set(rows=len(result.rows),
                       replay_jobs=len(outcome.job_records))
    return result


def planned_rows(prepared: PreparedQuery,
                 run_id: str | None = None) -> list[QueryRow]:
    """Rows the planner resolved without replay (logged / memo / analysis).

    The service streams these as a query's first batch, before any replay
    job lands.  ``run_id`` restricts to one run; None yields every run.
    """
    rows: list[QueryRow] = []
    for run_plan in prepared.plan.runs:
        if run_id is not None and run_plan.run_id != run_id:
            continue
        for resolution in run_plan.resolutions:
            rows.append(QueryRow(
                run_id=run_plan.run_id, iteration=resolution.iteration,
                name=resolution.name, value=resolution.value,
                source=resolution.source))
    return rows


def replay_rows(prepared: PreparedQuery, run_id: str,
                records: list[LogRecord]) -> list[QueryRow]:
    """Requested cells of ``run_id`` that ``records`` (one or more replay
    jobs' output) satisfies.  The service calls this per finished span to
    stream partial batches; passing a run's full replay output yields the
    same rows :func:`assemble_result` would."""
    index = _replay_index(records)
    rows: list[QueryRow] = []
    for run_plan in prepared.plan.runs:
        if run_plan.run_id != run_id:
            continue
        for name, iteration in run_plan.unresolved_cells:
            if (name, iteration) in index:
                rows.append(QueryRow(run_id=run_id, iteration=iteration,
                                     name=name,
                                     value=index[(name, iteration)],
                                     source="replay"))
    return rows


def assemble_result(prepared: PreparedQuery, outcome: ExecutionOutcome,
                    started: float | None = None) -> QueryResult:
    """Join planner resolutions with replay output into a QueryResult.

    Counts per-source stats, writes replayed values back through each
    run's memo cache (when memoization is on), closes the memo stores,
    and orders rows by each run's wanted iterations × requested names.
    Shared by :func:`query` and the service's request handler.
    """
    names = prepared.names
    rows: list[QueryRow] = []
    stats = QueryStats(runs=len(prepared.entries), values=names,
                       requested_cells=prepared.requested_cells,
                       replay_jobs=outcome.job_records,
                       planner_seconds=prepared.planner_seconds,
                       replay_seconds=outcome.replay_seconds)

    for run_plan in prepared.plan.runs:
        run_id = run_plan.run_id
        resolved: dict[tuple[str, int], QueryRow] = {}
        for row in planned_rows(prepared, run_id):
            resolved[(row.name, row.iteration)] = row
            if row.source == "logged":
                stats.resolved_logged += 1
            elif row.source == "analysis":
                stats.analysis_resolved += 1
            else:
                stats.resolved_memo += 1

        replayed = outcome.records_by_run.get(run_id, [])
        satisfied = replay_rows(prepared, run_id, replayed)
        for row in satisfied:
            resolved[(row.name, row.iteration)] = row
            stats.resolved_replay += 1
        stats.missing_cells += (len(run_plan.unresolved_cells)
                                - len(satisfied))

        if prepared.should_memoize and replayed:
            stats.memo_cells_written += \
                prepared.memos[run_id].write_back(replayed)
        prepared.memos[run_id].store.close()

        for iteration in run_plan.wanted_iterations:
            for name in names:
                row = resolved.get((name, iteration))
                if row is not None:
                    rows.append(row)

    if started is not None:
        stats.total_seconds = monotonic() - started
    return QueryResult(rows=rows, stats=stats)


def prepare_query(values: str | Sequence[str],
                  runs: str | Iterable[str] | None = None,
                  iterations: int | slice | Iterable[int] | None = None,
                  source: str | Path | None = None,
                  workload: str | None = None,
                  config: FlorConfig | None = None,
                  workers: int | None = None,
                  memoize: bool | None = None,
                  catalog: RunCatalog | None = None) -> PreparedQuery:
    """The planning stage of a query, shared by ``query`` and ``explain``.

    Selects runs, gates probe safety, and resolves every requested cell
    to its cheapest source — without executing a single replay job.
    Parameters match :func:`query`.
    """
    started = monotonic()
    config = config or get_config()
    telemetry.enable_from_config(config)
    names = (values,) if isinstance(values, str) else tuple(values)
    if not names:
        raise QueryError("query needs at least one value name")
    should_memoize = config.query_memoize if memoize is None else memoize
    processes = config.query_workers if workers is None else workers

    catalog = catalog or RunCatalog.open(config)
    entries = catalog.select(runs, workload=workload)
    if not entries:
        raise QueryError(
            f"no runs match runs={runs!r} workload={workload!r} under "
            f"{config.home} ({len(catalog)} run(s) cataloged)")

    source_text = _resolve_source_text(source)
    plan = QueryPlan()
    memos: dict[str, MemoCache] = {}
    sources_by_run: dict[str, str] = {}
    probed_by_run: dict[str, tuple[str, ...]] = {}
    aligned_by_run: dict[str, Sequence[int]] = {}
    costs_by_run: dict[str, object] = {}
    instrumented_cache: dict[str, str] = {}

    for entry in entries:
        run_dir = Path(entry.run_dir)
        store = CheckpointStore.for_config(run_dir, config)
        record_source_text = _load_recorded_source(store)
        replay_source_text = (source_text if source_text is not None
                              else record_source_text)
        replay_possible = (
            replay_source_text is not None
            and record_source_text is not None
            and source_digest(replay_source_text)
            != source_digest(record_source_text))

        # Static purity gate, at plan time: MUTATING probes are refused
        # before a single job is scheduled, and PURE_LOGGED probes are
        # evaluated straight from the record log so they cost zero replay.
        probe_analysis: ProbeAnalysis | None = None
        if replay_possible:
            try:
                probe_analysis = assert_probes_safe(
                    record_source_text, replay_source_text,
                    logged_names=set(entry.logged_values),
                    filename=f"{entry.run_id}:probe source")
            except Exception:
                store.close()
                raise

        digest = source_digest(replay_source_text or "")
        memo = MemoCache(store, digest)
        memos[entry.run_id] = memo

        wanted = _normalize_iterations(iterations, entry.main_loop_total)
        pure_probes = probe_analysis.pure_logged() if probe_analysis else {}
        pure_inputs = {read for probe in pure_probes.values()
                       for read in probe.facts.reads} - set(SAFE_BUILTINS)
        record_index = _record_index(
            run_dir, names + tuple(sorted(pure_inputs - set(names))))
        analysis_index = _evaluate_pure_probes(
            pure_probes, names, wanted, record_index)
        costs = load_iteration_costs(store,
                                     scaling_factor=config.scaling_factor)
        run_plan = plan_run(entry, names, wanted,
                            record_index=record_index,
                            memo_index=memo.load(),
                            costs=costs,
                            replay_possible=replay_possible,
                            analysis_index=analysis_index,
                            analysis_only_names=frozenset(
                                name for name in pure_probes
                                if name in names))
        plan.runs.append(run_plan)
        aligned_by_run[entry.run_id] = entry.aligned_iterations
        costs_by_run[entry.run_id] = costs

        if run_plan.spans:
            if replay_source_text not in instrumented_cache:
                instrumented_cache[replay_source_text] = instrument_source(
                    replay_source_text).instrumented_source
            sources_by_run[entry.run_id] = \
                instrumented_cache[replay_source_text]
            probed_by_run[entry.run_id] = tuple(sorted(
                _probed_blocks(entry, store, record_source_text,
                               replay_source_text)))
        # Job workers open their own connections; release this one so the
        # pool can fork/spawn around a quiesced store.
        store.close()

    return PreparedQuery(config=config, names=names, entries=entries,
                         plan=plan, memos=memos,
                         sources_by_run=sources_by_run,
                         probed_by_run=probed_by_run,
                         aligned_by_run=aligned_by_run,
                         costs_by_run=costs_by_run,
                         planner_seconds=monotonic() - started,
                         processes=processes,
                         should_memoize=should_memoize)


# ------------------------------------------------------------------------- #
# Helpers
# ------------------------------------------------------------------------- #
def _resolve_source_text(source: str | Path | None) -> str | None:
    """Accept probe source as text or as a path (mirrors replay_script)."""
    if source is None:
        return None
    if isinstance(source, Path) or (isinstance(source, str)
                                    and "\n" not in source
                                    and Path(source).exists()):
        return Path(source).read_text(encoding="utf-8")
    return str(source)


def _load_recorded_source(store: CheckpointStore) -> str | None:
    try:
        return store.load_source(ORIGINAL_SOURCE_NAME)
    except Exception:
        return None


def _normalize_iterations(iterations, total: int) -> tuple[int, ...]:
    """Resolve the ``iterations`` argument against one run's range."""
    full = range(max(0, total))
    if iterations is None:
        return tuple(full)
    if isinstance(iterations, int):
        return (iterations,) if iterations in full else ()
    if isinstance(iterations, slice):
        return tuple(full[iterations])
    return tuple(sorted({index for index in iterations if index in full}))


def _record_index(run_dir: Path,
                  names: tuple[str, ...]) -> dict[tuple[str, int], object]:
    """``(name, iteration) -> value`` from record.log (last write wins)."""
    index: dict[tuple[str, int], object] = {}
    for record in read_log(run_dir / "record.log"):
        if record.name in names and record.iteration is not None:
            index[(record.name, record.iteration)] = record.value
    return index


def _evaluate_pure_probes(pure_probes: dict, names: tuple[str, ...],
                          wanted: tuple[int, ...],
                          record_index: dict[tuple[str, int], object],
                          ) -> dict[tuple[str, int], object]:
    """Evaluate ``PURE_LOGGED`` probes per iteration from the record log.

    For each requested value name that a pure probe computes, and each
    wanted iteration at which every input name was logged, the probe's
    expression is evaluated under the safe-builtins environment.  Cells
    whose inputs are missing (or whose evaluation raises) are simply left
    out — the planner reports them missing instead of replaying, because
    the expression references *logged value names*, which need not exist
    as live variables in a replayed script.
    """
    index: dict[tuple[str, int], object] = {}
    for name, probe in pure_probes.items():
        if name not in names:
            continue
        inputs = [read for read in probe.facts.reads
                  if read not in SAFE_BUILTINS]
        for iteration in wanted:
            if (name, iteration) in record_index:
                continue  # already logged at record time; log wins
            env = {}
            for read in inputs:
                if (read, iteration) not in record_index:
                    env = None
                    break
                env[read] = record_index[(read, iteration)]
            if env is None:
                continue
            try:
                index[(name, iteration)] = evaluate_pure_logged(probe, env)
            except Exception:
                continue  # unresolvable cell, reported missing
    return index


def _replay_index(records: list[LogRecord]) -> dict[tuple[str, int], object]:
    index: dict[tuple[str, int], object] = {}
    for record in records:
        if record.iteration is not None:
            index[(record.name, record.iteration)] = record.value
    return index


def _probed_blocks(entry: RunEntry, store: CheckpointStore,
                   record_source_text: str | None,
                   replay_source_text: str | None) -> set[str]:
    if not record_source_text or not replay_source_text:
        return set()
    stored = {block_id: BlockSpec.from_dict(spec)
              for block_id, spec in
              (store.get_metadata("blocks") or {}).items()}
    return detect_probed_blocks(record_source_text, replay_source_text,
                                stored)
