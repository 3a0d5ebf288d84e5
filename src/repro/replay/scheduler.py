"""Checkpoint-aware replay scheduling (beyond Section 5.4.1's uniform split).

The paper partitions the main loop's iterations uniformly across workers and
assumes every segment boundary is restorable.  Under adaptive checkpointing
(Section 5.3) that assumption breaks: the controller materializes a *sparse*
subset of Loop End Checkpoints, so a uniform boundary often falls on an
iteration with no checkpoint and the worker must recompute the gap from the
nearest earlier one — or, worse, silently start from stale state.

This module replaces the uniform split with one static plan that

* asks the checkpoint store which execution indices were *actually*
  materialized for every main-loop block (``CheckpointStore.executions``)
  and intersects them into the set of **aligned** iterations — iterations
  whose end-state is fully restorable;
* weighs iterations by the per-iteration timing statistics the record phase
  persists into store metadata (``iteration_stats``), so segments are
  balanced by *estimated recompute + restore cost* instead of iteration
  count; and
* gives each worker one contiguous segment that it derives independently
  from the store — deterministic and coordination-free, like the paper's
  split, so workers neither communicate nor coordinate.

The scheduler also produces the worker's **initialization plan**: the
iteration to restore from (weak initialization) plus the gap of iterations
that must be recomputed forward to reach the segment start — the fix for
the weak-init divergence bug where a missing boundary checkpoint silently
replayed from stale state.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..exceptions import ReplayError
from .partition import WorkSegment, partition_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..session import Session
    from ..storage.checkpoint_store import CheckpointStore

__all__ = [
    "MAIN_LOOP_INDEX_LIMIT", "InitPlan", "IterationCosts",
    "aligned_checkpoints", "candidate_starts", "load_iteration_costs",
    "nearest_aligned_at_or_before", "plan_static_segments",
    "ReplayScheduler",
]

#: Execution indices at or above this value are composite (a block entered
#: more than once in one iteration) or synthetic; they never denote a
#: main-loop iteration boundary.  Mirrors ``Session.next_execution_index``.
MAIN_LOOP_INDEX_LIMIT = 1_000_000

#: Fallback per-iteration compute estimate when a run predates (or lost) the
#: recorded ``iteration_stats`` metadata.  Only relative magnitudes matter.
DEFAULT_ITERATION_SECONDS = 1.0


# --------------------------------------------------------------------------- #
# Initialization plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InitPlan:
    """How one worker reaches the starting state of a work segment.

    ``restore_index`` is the single iteration run in replay-initialization
    mode with *weak* (nearest-checkpoint) restoration allowed — always an
    aligned iteration, so the restore is exact.  ``recompute`` is the gap of
    iterations run forward from that state (each SkipBlock inside them may
    still exact-restore when its own checkpoint exists, and executes
    otherwise).  Strong initialization is the degenerate plan with no
    restore index and ``recompute`` covering the whole prefix.
    """

    restore_index: int | None
    recompute: range

    def indices(self) -> list[int]:
        """Initialization iterations, in execution order."""
        head = [] if self.restore_index is None else [self.restore_index]
        return head + list(self.recompute)

    def __len__(self) -> int:
        return (0 if self.restore_index is None else 1) + len(self.recompute)


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class IterationCosts:
    """Per-iteration replay cost estimates, from recorded timing stats.

    ``per_iteration`` holds measured compute seconds per main-loop iteration
    (summed over that iteration's SkipBlock executions);
    ``mean_compute_seconds`` covers iterations with no measurement, and
    ``restore_seconds`` estimates one checkpoint restoration (the paper's
    ``R_i = c * M_i``, Eq. 3).
    """

    per_iteration: dict[int, float] = field(default_factory=dict)
    mean_compute_seconds: float = DEFAULT_ITERATION_SECONDS
    restore_seconds: float = 0.0

    def compute(self, index: int) -> float:
        """Estimated seconds to re-execute iteration ``index``."""
        return max(self.per_iteration.get(index, self.mean_compute_seconds),
                   1e-9)

    def span_compute_seconds(self, start: int, stop: int) -> float:
        """Estimated seconds to re-execute iterations ``[start, stop)``.

        The hindsight query planner prices replay spans and restore-vs-
        bridge decisions with this sum.
        """
        return sum(self.compute(index) for index in range(start,
                                                          max(start, stop)))

    def replay_cost(self, index: int, restorable: bool,
                    probed: bool = False) -> float:
        """Estimated seconds iteration ``index`` costs during replay-exec."""
        if probed or not restorable:
            return self.compute(index)
        # A restorable, un-probed iteration is skipped and restored; keep the
        # estimate strictly positive so balancing never divides by zero.
        return max(self.restore_seconds,
                   min(0.1 * self.mean_compute_seconds, self.compute(index)),
                   1e-9)


def load_iteration_costs(store: "CheckpointStore",
                         scaling_factor: float = 1.0) -> IterationCosts:
    """Build the cost model from the run's ``iteration_stats`` metadata.

    The record phase persists per-iteration compute seconds and mean
    materialization seconds at session close; runs recorded before that
    metadata existed fall back to uniform unit costs, which degrades the
    scheduler to count-balanced (but still checkpoint-aligned) segments.
    """
    stats = store.get_metadata("iteration_stats") or {}
    per = {}
    for key, seconds in (stats.get("per_iteration_compute_seconds") or {}).items():
        try:
            per[int(key)] = max(float(seconds), 0.0)
        except (TypeError, ValueError):
            continue
    mean = stats.get("mean_compute_seconds")
    if not mean or mean <= 0:
        mean = (sum(per.values()) / len(per)) if per else DEFAULT_ITERATION_SECONDS
    # Prefer the restore-duration EWMA a telemetry-on replay wrote back
    # over the record-time ``scaling_factor * materialize`` prior: it is
    # measured on the real restore path (deserialize + reassemble + read).
    restore = stats.get("observed_restore_seconds")
    if not restore or restore <= 0:
        restore = stats.get("estimated_restore_seconds")
    if not restore or restore <= 0:
        materialize = stats.get("mean_materialize_seconds") or 0.0
        restore = scaling_factor * float(materialize)
    return IterationCosts(per_iteration=per,
                          mean_compute_seconds=float(mean),
                          restore_seconds=max(float(restore), 0.0))


# --------------------------------------------------------------------------- #
# Checkpoint alignment
# --------------------------------------------------------------------------- #
def aligned_checkpoints(store: "CheckpointStore", total: int,
                        loop_blocks: Iterable[str] | None = None) -> list[int]:
    """Main-loop iterations whose end-state is fully restorable.

    An iteration ``i`` is *aligned* when **every** main-loop SkipBlock has a
    materialized checkpoint at execution index ``i`` — restoring iteration
    ``i`` then reproduces the record-phase state exactly, so a work segment
    may start at ``i + 1``.  Blocks outside the main loop use their own
    counters and run identically in every worker; they do not constrain
    alignment.
    """
    if total <= 0:
        return []
    blocks = list(loop_blocks) if loop_blocks is not None else None
    if blocks is None:
        blocks = store.get_metadata("loop_blocks")
    if not blocks:
        # Pre-metadata runs: conservatively treat any block with a plain
        # (non-composite) execution index inside the loop range as main-loop.
        blocks = [block_id for block_id in store.blocks()
                  if any(0 <= index < min(total, MAIN_LOOP_INDEX_LIMIT)
                         for index in store.executions(block_id))]
    if not blocks:
        return []
    aligned: set[int] | None = None
    for block_id in blocks:
        indices = {index for index in store.executions(block_id)
                   if 0 <= index < min(total, MAIN_LOOP_INDEX_LIMIT)}
        aligned = indices if aligned is None else aligned & indices
        if not aligned:
            return []
    return sorted(aligned or ())


def nearest_aligned_at_or_before(aligned: Sequence[int],
                                 index: int) -> int | None:
    """Largest aligned iteration ``<= index``, or None.

    ``aligned`` must be sorted ascending (as :func:`aligned_checkpoints`
    returns it).  Shared by init planning and the hindsight query planner:
    both need the exact-restorable iteration closest below a target.
    """
    position = bisect_right(aligned, index)
    return aligned[position - 1] if position else None


def candidate_starts(total: int, aligned: Sequence[int]) -> list[int]:
    """Iteration indices where a work segment may begin.

    ``0`` is always a valid start (no state precedes it); every aligned
    iteration ``i`` makes ``i + 1`` a valid start.
    """
    starts = {0}
    for index in aligned:
        if 0 <= index + 1 < total:
            starts.add(index + 1)
    return sorted(starts)


# --------------------------------------------------------------------------- #
# Static (per-worker deterministic) planning
# --------------------------------------------------------------------------- #
def plan_static_segments(total: int, num_workers: int,
                         aligned: Sequence[int], costs: IterationCosts,
                         probed: bool = False) -> list[WorkSegment]:
    """Checkpoint-aligned, cost-balanced contiguous segments, one per worker.

    Boundaries are chosen only from aligned starts; segments are balanced by
    estimated replay cost (restore for memoized iterations, recompute for the
    rest, plus one restore charge per non-zero segment start).  The split
    minimizes the *bottleneck* segment cost exactly — binary search on the
    bottleneck with a greedy feasibility packing, the classic min-max
    contiguous partition — because the slowest worker bounds replay wall
    time (Figure 13's load-balancing limit).  When there are fewer aligned
    boundaries than workers, trailing workers receive empty segments rather
    than boundaries that would force duplicated recompute.  With no aligned
    checkpoints at all, the plan falls back to the paper's uniform split —
    every worker recomputes either way, and uniform spreads that recompute
    evenly.
    """
    if num_workers < 1:
        raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
    if total <= 0:
        return [WorkSegment(0, 0) for _ in range(num_workers)]
    if num_workers == 1:
        return [WorkSegment(0, total)]
    if not aligned:
        return [partition_indices(total, num_workers, pid)
                for pid in range(num_workers)]

    restorable = set(aligned)
    prefix = [0.0]
    for index in range(total):
        prefix.append(prefix[-1] + costs.replay_cost(
            index, index in restorable, probed=probed))
    bounds = candidate_starts(total, aligned) + [total]
    startup = max(costs.restore_seconds, 0.0)

    def segment_cost(start: int, end: int) -> float:
        if end <= start:
            return 0.0
        return (startup if start > 0 else 0.0) + prefix[end] - prefix[start]

    def pack(limit: float) -> list[int] | None:
        """Greedy packing: segment ends staying under ``limit`` (or None)."""
        ends: list[int] = []
        position = 0
        while bounds[position] < total:
            if len(ends) == num_workers:
                return None
            farthest = position
            while (farthest + 1 < len(bounds) and segment_cost(
                    bounds[position], bounds[farthest + 1]) <= limit):
                farthest += 1
            if farthest == position:
                return None  # even one aligned hop exceeds the limit
            ends.append(bounds[farthest])
            position = farthest
        return ends

    # The bottleneck optimum lies between the heaviest single aligned hop
    # (no split can do better) and the whole range on one worker.
    low = max(segment_cost(bounds[i], bounds[i + 1])
              for i in range(len(bounds) - 1))
    high = segment_cost(0, total) + startup
    assert pack(high) is not None  # one worker can always take everything
    for _ in range(48):
        middle = (low + high) / 2.0
        if pack(middle) is None:
            low = middle
        else:
            high = middle
    limit = high

    # Farthest reachable bound per position at the optimal bottleneck, and
    # the fewest segments needed to finish from each bound (both via the
    # classic greedy; ``reach`` is monotone, so one two-pointer sweep).
    reach = [0] * len(bounds)
    farthest = 0
    for position in range(len(bounds)):
        farthest = max(farthest, position)
        while (farthest + 1 < len(bounds) and segment_cost(
                bounds[position], bounds[farthest + 1]) <= limit):
            farthest += 1
        reach[position] = farthest
    need = [0] * len(bounds)
    for position in range(len(bounds) - 2, -1, -1):
        need[position] = 1 + need[reach[position]]

    # Among the cuts that keep the bottleneck optimal, prefer the one whose
    # segment cost is closest to an even share — greedy-farthest packing
    # alone would front-load work and leave trailing workers idle on ties.
    ends: list[int] = []
    position = 0
    workers_left = num_workers
    while bounds[position] < total:
        share = (prefix[total] - prefix[bounds[position]]) / workers_left
        candidates = [index for index in range(position + 1,
                                               reach[position] + 1)
                      if need[index] <= workers_left - 1]
        cut = min(candidates, key=lambda index: abs(
            segment_cost(bounds[position], bounds[index]) - share))
        ends.append(bounds[cut])
        position = cut
        workers_left -= 1

    segments = []
    prev = 0
    for end in ends + [total] * (num_workers - len(ends)):
        end = min(max(end, prev), total)
        segments.append(WorkSegment(prev, end))
        prev = end
    return segments


# --------------------------------------------------------------------------- #
# The scheduler facade
# --------------------------------------------------------------------------- #
class ReplayScheduler:
    """Issues checkpoint-aligned work segments and initialization plans.

    One instance is built per worker from the (shared, read-only) checkpoint
    store; the plan is deterministic, so every worker derives the same
    global plan without coordination and replays its own segment of it.
    """

    def __init__(self, store: "CheckpointStore", total: int,
                 num_workers: int, *, scaling_factor: float = 1.0,
                 strict: bool = False,
                 probed_blocks: Iterable[str] = (),
                 loop_blocks: Iterable[str] | None = None):
        if total < 0:
            raise ReplayError(f"iteration count must be non-negative, "
                              f"got {total}")
        if num_workers < 1:
            raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
        self.store = store
        self.total = total
        self.num_workers = num_workers
        self.strict = strict
        self.probed = bool(set(probed_blocks))
        self.aligned = aligned_checkpoints(store, total,
                                           loop_blocks=loop_blocks)
        self.costs = load_iteration_costs(store,
                                          scaling_factor=scaling_factor)

    @classmethod
    def for_session(cls, session: "Session", total: int) -> "ReplayScheduler":
        return cls(
            store=session.store,
            total=total,
            num_workers=session.num_workers,
            scaling_factor=session.config.scaling_factor,
            strict=session.config.strict_consistency,
            probed_blocks=session.probed_blocks,
        )

    # -- segment issue ----------------------------------------------------
    def static_segments(self) -> list[WorkSegment]:
        """The full plan (same in every worker), for inspection."""
        return plan_static_segments(self.total, self.num_workers,
                                    self.aligned, self.costs,
                                    probed=self.probed)

    def worker_segment(self, pid: int) -> WorkSegment:
        """The work segment worker ``pid`` must replay."""
        if not 0 <= pid < self.num_workers:
            raise ReplayError(f"pid must be in [0, {self.num_workers}), "
                              f"got {pid}")
        return self.static_segments()[pid]

    # -- initialization planning ------------------------------------------
    def init_plan(self, start: int, strong: bool) -> InitPlan:
        """Plan how a worker reaches the state preceding iteration ``start``.

        Weak initialization restores the nearest *aligned* checkpoint at or
        before ``start - 1`` and recomputes the gap — the fix for the
        divergence where a missing boundary checkpoint silently replayed
        from stale state.  With no usable checkpoint at all the plan either
        raises (strict mode) or degrades to recomputing the whole prefix,
        which is strong initialization — slow but correct.
        """
        if start <= 0:
            return InitPlan(None, range(0, 0))
        if strong:
            return InitPlan(None, range(0, start))
        restore = nearest_aligned_at_or_before(self.aligned, start - 1)
        if restore is None:
            message = (
                f"weak initialization has no usable checkpoint at or before "
                f"iteration {start - 1}; recomputing iterations 0..{start - 1} "
                f"from scratch instead")
            if self.strict:
                raise ReplayError(
                    f"weak initialization has no usable checkpoint at or "
                    f"before iteration {start - 1} (strict consistency)")
            warnings.warn(message, stacklevel=2)
            return InitPlan(None, range(0, start))
        return InitPlan(restore, range(restore + 1, start))
