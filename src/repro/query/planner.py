"""Cost-based value resolution for hindsight queries.

Given the cells a query asks for — ``(run, value-name, iteration)`` — the
planner resolves each one to the cheapest source:

``logged``
    The value was logged at record time; reading ``record.log`` is free.
``memo``
    A previous query already replayed it and the memo cache wrote it back
    through the storage backend; reading it back is free.
``analysis``
    The probe that computes the value is ``PURE_LOGGED`` (it reads only
    names the run already logged — see :mod:`repro.analysis.purity`), so
    the value was evaluated directly from ``record.log`` without starting
    a single replay worker.
``replay``
    The value must be recomputed.  Unresolved iterations are coalesced
    into **replay spans**: contiguous iteration ranges that start right
    after an aligned checkpoint (exactly restorable, by construction) and
    run forward, so one span resolves every probed value it passes over —
    multiple probes per pass.

Span construction is where the cost model earns its keep.  For each gap of
unresolved iterations the planner chooses between *bridging* (extending the
previous span forward through iterations nobody asked for) and *starting
fresh* (restoring the nearest aligned checkpoint and recomputing the gap
from there), priced with the per-iteration timing statistics the record
phase persisted (``iteration_stats``, via the replay scheduler's
:class:`~repro.replay.scheduler.IterationCosts`).  Dense queries therefore
collapse into few long spans; sparse queries into many short restore+probe
hops — whichever is estimated cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..replay.scheduler import IterationCosts, nearest_aligned_at_or_before
from .catalog import RunEntry

__all__ = ["Resolution", "ReplaySpan", "RunPlan", "QueryPlan",
           "plan_spans", "split_span", "balance_spans", "plan_run"]

#: Sources a cell can resolve to, cheapest first.
SOURCES = ("logged", "memo", "analysis", "replay")


@dataclass(frozen=True)
class Resolution:
    """One query cell resolved to a source (value present unless replay)."""

    run_id: str
    name: str
    iteration: int
    source: str
    value: object = None


@dataclass(frozen=True)
class ReplaySpan:
    """One contiguous replay range ``[start, stop)`` of one run.

    ``restore_index`` is the aligned checkpoint restored before the span
    (``start - 1``), or None when the span starts at iteration 0 and
    recomputes from scratch.  Every iteration in the span executes in
    replay-exec phase, so every probed value along the way is produced —
    including ones the query did not ask for, which the memo cache banks
    for future queries.
    """

    start: int
    stop: int
    restore_index: int | None
    estimated_seconds: float

    def iterations(self) -> range:
        return range(self.start, self.stop)

    def __len__(self) -> int:
        return max(0, self.stop - self.start)


def plan_spans(wanted: Iterable[int], aligned: Sequence[int],
               costs: IterationCosts) -> list[ReplaySpan]:
    """Coalesce unresolved iterations into cost-minimal replay spans.

    Greedy left-to-right over the contiguous groups of ``wanted``: each
    group either extends the previous span (bridging the gap with recompute
    of un-requested iterations) or starts a fresh span at the nearest
    aligned checkpoint — whichever the cost model prices lower.  A fresh
    span whose restore point lies before the previous span's end would
    overlap it; bridging is always cheaper there, so spans never overlap.
    """
    indices = sorted(set(wanted))
    if not indices:
        return []
    restore_seconds = max(costs.restore_seconds, 0.0)

    groups: list[tuple[int, int]] = []
    for index in indices:
        if groups and index == groups[-1][1]:
            groups[-1] = (groups[-1][0], index + 1)
        else:
            groups.append((index, index + 1))

    spans: list[tuple[int, int]] = []
    for begin, end in groups:
        restore = nearest_aligned_at_or_before(aligned, begin - 1)
        fresh_start = restore + 1 if restore is not None else 0
        fresh_cost = ((restore_seconds if restore is not None else 0.0)
                      + costs.span_compute_seconds(fresh_start, end))
        if spans:
            bridge_cost = costs.span_compute_seconds(spans[-1][1], end)
            if bridge_cost <= fresh_cost:
                spans[-1] = (spans[-1][0], end)
                continue
        spans.append((fresh_start, end))
    return [_make_span(start, stop, costs) for start, stop in spans]


def _make_span(start: int, stop: int, costs: IterationCosts) -> ReplaySpan:
    restore_index = start - 1 if start > 0 else None
    estimated = costs.span_compute_seconds(start, stop)
    if restore_index is not None:
        estimated += max(costs.restore_seconds, 0.0)
    return ReplaySpan(start=start, stop=stop, restore_index=restore_index,
                      estimated_seconds=estimated)


def split_span(span: ReplaySpan, aligned: Sequence[int],
               costs: IterationCosts, parts: int = 2) -> list[ReplaySpan]:
    """Split one span at aligned boundaries into ~cost-equal parts.

    Used to widen parallelism when a query yields fewer spans than worker
    processes.  Cuts land only on aligned starts (``checkpoint + 1``), so
    every part restores exactly; a span crossing no aligned checkpoint is
    unsplittable and comes back unchanged.
    """
    if parts <= 1:
        return [span]
    cut_points = [index + 1 for index in aligned
                  if span.start < index + 1 < span.stop]
    if not cut_points:
        return [span]
    target = span.estimated_seconds / parts
    pieces: list[ReplaySpan] = []
    begin = span.start
    for cut in cut_points:
        if len(pieces) == parts - 1:
            break
        if costs.span_compute_seconds(begin, cut) >= target:
            pieces.append(_make_span(begin, cut, costs))
            begin = cut
    pieces.append(_make_span(begin, span.stop, costs))
    return pieces if len(pieces) > 1 else [span]


def balance_spans(spans_by_run: list[tuple[str, ReplaySpan]],
                  aligned_by_run: dict[str, Sequence[int]],
                  costs_by_run: dict[str, IterationCosts],
                  target_jobs: int) -> list[tuple[str, ReplaySpan]]:
    """Split the most expensive spans until ``target_jobs`` jobs exist.

    Jobs from different runs already parallelize; this widens within-run
    parallelism when a few heavy spans would otherwise leave pool workers
    idle.  Splitting stops when every remaining span crosses no aligned
    checkpoint (nothing to cut at) or the target is met.
    """
    jobs = list(spans_by_run)
    frozen: set[int] = set()  # positions known unsplittable
    while len(jobs) < target_jobs:
        candidates = [(span.estimated_seconds, position)
                      for position, (_run, span) in enumerate(jobs)
                      if position not in frozen]
        if not candidates:
            break
        _cost, position = max(candidates)
        run_id, span = jobs[position]
        pieces = split_span(span, aligned_by_run[run_id],
                            costs_by_run[run_id], parts=2)
        if len(pieces) == 1:
            frozen.add(position)
            continue
        jobs[position:position + 1] = [(run_id, piece) for piece in pieces]
        frozen = set()  # positions shifted; re-evaluate from scratch
    return jobs


@dataclass
class RunPlan:
    """The per-run half of a query plan."""

    entry: RunEntry
    names: tuple[str, ...]
    wanted_iterations: tuple[int, ...]
    resolutions: list[Resolution] = field(default_factory=list)
    #: Cells neither logged nor memoized, awaiting replay output.
    unresolved_cells: list[tuple[str, int]] = field(default_factory=list)
    replay_iterations: tuple[int, ...] = ()
    spans: list[ReplaySpan] = field(default_factory=list)
    #: Names produced solely by PURE_LOGGED probes: replay cannot log
    #: them, so their unresolved cells are missing even inside a span.
    analysis_only_names: frozenset[str] = frozenset()

    @property
    def run_id(self) -> str:
        return self.entry.run_id

    @property
    def estimated_replay_seconds(self) -> float:
        return sum(span.estimated_seconds for span in self.spans)

    def count(self, source: str) -> int:
        return sum(1 for r in self.resolutions if r.source == source)


@dataclass
class QueryPlan:
    """The full plan of one multi-run hindsight query."""

    runs: list[RunPlan] = field(default_factory=list)

    @property
    def span_jobs(self) -> list[tuple[str, ReplaySpan]]:
        return [(plan.run_id, span) for plan in self.runs
                for span in plan.spans]

    @property
    def estimated_replay_seconds(self) -> float:
        return sum(plan.estimated_replay_seconds for plan in self.runs)

    def count(self, source: str) -> int:
        return sum(plan.count(source) for plan in self.runs)


def plan_run(entry: RunEntry, names: Sequence[str],
             wanted_iterations: Sequence[int],
             record_index: dict[tuple[str, int], object],
             memo_index: dict[str, dict[int, object]],
             costs: IterationCosts,
             replay_possible: bool,
             analysis_index: dict[tuple[str, int], object] | None = None,
             analysis_only_names: frozenset[str] = frozenset()) -> RunPlan:
    """Resolve one run's cells and coalesce the remainder into spans.

    ``record_index`` maps ``(name, iteration)`` to the record-time value;
    ``memo_index`` is the memo cache's loaded view for the query's probe
    source.  ``replay_possible`` is False when the query supplied no probe
    source — replaying the recorded script verbatim cannot produce values
    it never logged, so unresolved cells stay unresolved instead of
    scheduling useless jobs.

    ``analysis_index`` holds values the purity analysis already evaluated
    from the record log (``PURE_LOGGED`` probes); cells found there cost no
    replay.  ``analysis_only_names`` are value names produced *solely* by
    ``PURE_LOGGED`` probe statements: their expressions reference logged
    value names, which need not exist as live script variables, so a cell
    of such a name that the analysis could not evaluate is reported missing
    rather than span-planned — replaying it could only crash.
    """
    plan = RunPlan(entry=entry, names=tuple(names),
                   wanted_iterations=tuple(wanted_iterations),
                   analysis_only_names=analysis_only_names)
    analysis_index = analysis_index or {}
    unresolved: set[int] = set()
    for iteration in wanted_iterations:
        for name in names:
            if (name, iteration) in record_index:
                plan.resolutions.append(Resolution(
                    entry.run_id, name, iteration, "logged",
                    record_index[(name, iteration)]))
            elif iteration in memo_index.get(name, {}):
                plan.resolutions.append(Resolution(
                    entry.run_id, name, iteration, "memo",
                    memo_index[name][iteration]))
            elif (name, iteration) in analysis_index:
                plan.resolutions.append(Resolution(
                    entry.run_id, name, iteration, "analysis",
                    analysis_index[(name, iteration)]))
            else:
                plan.unresolved_cells.append((name, iteration))
                if name not in analysis_only_names:
                    unresolved.add(iteration)
    if unresolved and replay_possible:
        plan.replay_iterations = tuple(sorted(unresolved))
        plan.spans = plan_spans(unresolved, entry.aligned_iterations, costs)
    return plan
