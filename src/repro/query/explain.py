"""``repro.explain(...)``: the query planner's decisions, without running them.

The planner is a cost model, and cost models earn trust by being
inspectable: before paying for a replay, a user can ask where each
requested cell *would* come from and what the chosen replay spans are
priced at.  ``explain`` runs exactly the planning stage :func:`repro.query`
runs — run selection, probe-safety gating, per-cell resolution, span
coalescing — and returns a structured :class:`ExplainReport` instead of
executing the plan.  Per-source counts therefore match the
:class:`~repro.query.dataframe.QueryStats` the real query would report
(replay-planned cells resolve as ``replay`` when their spans run; cells no
span can produce are ``missing``).

Renderers follow the :class:`~repro.analysis.diagnostics.DiagnosticReport`
pattern: a human text table, a stable JSON document, and
``to_payload``/``from_payload`` for persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .. import telemetry
from ..config import FlorConfig, get_config
from .api import prepare_query
from .catalog import RunCatalog
from .planner import RunPlan

__all__ = ["SpanChoice", "RunExplain", "ExplainReport", "explain"]

#: Version of the explain JSON document.
EXPLAIN_SCHEMA = 1


@dataclass(frozen=True)
class SpanChoice:
    """One replay span the planner priced and chose for a run."""

    start: int
    stop: int
    #: Aligned checkpoint restored before the span (None: recompute from 0).
    restore_index: int | None
    estimated_seconds: float

    @property
    def iterations(self) -> int:
        return max(0, self.stop - self.start)

    def render(self) -> str:
        restore = (f"restore@{self.restore_index}"
                   if self.restore_index is not None else "from-scratch")
        return (f"span [{self.start}, {self.stop}) {restore} "
                f"est {self.estimated_seconds:.3f}s")

    def to_dict(self) -> dict:
        return {"start": self.start, "stop": self.stop,
                "restore_index": self.restore_index,
                "estimated_seconds": self.estimated_seconds}

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanChoice":
        restore = payload.get("restore_index")
        return cls(start=int(payload["start"]), stop=int(payload["stop"]),
                   restore_index=(int(restore)
                                  if restore is not None else None),
                   estimated_seconds=float(
                       payload.get("estimated_seconds", 0.0)))


@dataclass
class RunExplain:
    """Per-run half of an explain report: cell resolution plus span pricing."""

    run_id: str
    requested_cells: int = 0
    logged: int = 0
    memo: int = 0
    analysis: int = 0
    #: Cells the chosen spans will produce when the plan executes.
    replay: int = 0
    #: Cells no source can answer (replay impossible or analysis-only).
    missing: int = 0
    spans: list[SpanChoice] = field(default_factory=list)

    @property
    def estimated_replay_seconds(self) -> float:
        return sum(span.estimated_seconds for span in self.spans)

    def sources(self) -> dict[str, int]:
        """Per-source cell counts, same keys as ``QueryStats`` reports."""
        return {"logged": self.logged, "memo": self.memo,
                "analysis": self.analysis, "replay": self.replay,
                "missing": self.missing}

    def render(self) -> list[str]:
        lines = [f"run {self.run_id}: {self.requested_cells} cell(s) — "
                 f"{self.logged} logged, {self.memo} memo, "
                 f"{self.analysis} analysis, {self.replay} replay, "
                 f"{self.missing} missing"]
        for span in self.spans:
            lines.append(f"  {span.render()}")
        return lines

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "requested_cells": self.requested_cells,
                "sources": self.sources(),
                "estimated_replay_seconds": self.estimated_replay_seconds,
                "spans": [span.to_dict() for span in self.spans]}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunExplain":
        sources = payload.get("sources") or {}
        return cls(run_id=payload["run_id"],
                   requested_cells=int(payload.get("requested_cells", 0)),
                   logged=int(sources.get("logged", 0)),
                   memo=int(sources.get("memo", 0)),
                   analysis=int(sources.get("analysis", 0)),
                   replay=int(sources.get("replay", 0)),
                   missing=int(sources.get("missing", 0)),
                   spans=[SpanChoice.from_dict(row)
                          for row in payload.get("spans", [])])


@dataclass
class ExplainReport:
    """The full explain document: per-run resolution plus span pricing."""

    values: tuple[str, ...] = ()
    runs: list[RunExplain] = field(default_factory=list)
    planner_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Aggregates (the numbers QueryStats would report after execution)
    # ------------------------------------------------------------------ #
    @property
    def requested_cells(self) -> int:
        return sum(run.requested_cells for run in self.runs)

    def count(self, source: str) -> int:
        return sum(run.sources().get(source, 0) for run in self.runs)

    def sources(self) -> dict[str, int]:
        return {key: self.count(key)
                for key in ("logged", "memo", "analysis", "replay",
                            "missing")}

    @property
    def replay_span_count(self) -> int:
        return sum(len(run.spans) for run in self.runs)

    @property
    def estimated_replay_seconds(self) -> float:
        return sum(run.estimated_replay_seconds for run in self.runs)

    def run(self, run_id: str) -> RunExplain:
        for entry in self.runs:
            if entry.run_id == run_id:
                return entry
        raise KeyError(f"run {run_id!r} not in this explain report")

    # ------------------------------------------------------------------ #
    # Renderers
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        counts = self.sources()
        return (f"{self.requested_cells} cell(s) over {len(self.runs)} "
                f"run(s): {counts['logged']} logged, {counts['memo']} memo, "
                f"{counts['analysis']} analysis, {counts['replay']} replay "
                f"via {self.replay_span_count} span(s) "
                f"(est {self.estimated_replay_seconds:.3f}s), "
                f"{counts['missing']} missing")

    def render_text(self) -> str:
        lines = [f"explain values={','.join(self.values)} "
                 f"planner={self.planner_seconds:.3f}s"]
        for run in self.runs:
            lines.extend(run.render())
        lines.append(self.summary())
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {"values": list(self.values),
                "planner_seconds": self.planner_seconds,
                "runs": [run.to_dict() for run in self.runs]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({
            "schema": EXPLAIN_SCHEMA,
            "summary": self.sources(),
            **self.to_payload(),
        }, indent=indent, sort_keys=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "ExplainReport":
        # Payloads written before the planner had a single mode also carry
        # a ``planner_mode`` key; it is ignored.
        return cls(values=tuple(payload.get("values", ())),
                   planner_seconds=float(
                       payload.get("planner_seconds", 0.0)),
                   runs=[RunExplain.from_dict(row)
                         for row in payload.get("runs", [])])

    def __repr__(self) -> str:
        return f"ExplainReport({self.summary()})"


def _explain_run(run_plan: RunPlan) -> RunExplain:
    """Fold one run's plan into resolution counts and priced spans."""
    explained = RunExplain(
        run_id=run_plan.run_id,
        requested_cells=(len(run_plan.names)
                         * len(run_plan.wanted_iterations)),
        logged=run_plan.count("logged"),
        memo=run_plan.count("memo"),
        analysis=run_plan.count("analysis"),
        spans=[SpanChoice(start=span.start, stop=span.stop,
                          restore_index=span.restore_index,
                          estimated_seconds=span.estimated_seconds)
               for span in run_plan.spans])
    # Mirror execution's verdict per unresolved cell: a replay span that
    # passes over the cell's iteration logs every probed value — except
    # analysis-only names, which exist only as logged-name expressions and
    # are never live in a replayed script.
    covered: set[int] = set()
    for span in run_plan.spans:
        covered.update(span.iterations())
    for name, iteration in run_plan.unresolved_cells:
        if iteration in covered \
                and name not in run_plan.analysis_only_names:
            explained.replay += 1
        else:
            explained.missing += 1
    return explained


def explain(values: str | Sequence[str],
            runs: str | Iterable[str] | None = None,
            iterations: int | slice | Iterable[int] | None = None,
            source: str | Path | None = None,
            workload: str | None = None,
            config: FlorConfig | None = None,
            workers: int | None = None,
            memoize: bool | None = None,
            catalog: RunCatalog | None = None) -> ExplainReport:
    """Plan a hindsight query and report the decisions without executing.

    Accepts exactly the arguments of :func:`repro.query` and runs the same
    planning stage (run selection, probe-safety gate, cost-based per-cell
    resolution, span coalescing), then returns the plan as a structured
    report instead of scheduling replay jobs.  Nothing is replayed, no
    memo entry is written, and the report's per-source counts predict the
    ``QueryStats`` the equivalent query would produce.
    """
    config = config or get_config()
    telemetry.enable_from_config(config)
    with telemetry.get_tracer().span("query.explain"):
        prepared = prepare_query(values, runs, iterations, source,
                                 workload, config, workers, memoize,
                                 catalog)
    try:
        return ExplainReport(
            values=prepared.names,
            runs=[_explain_run(run_plan)
                  for run_plan in prepared.plan.runs],
            planner_seconds=prepared.planner_seconds)
    finally:
        prepared.close()
