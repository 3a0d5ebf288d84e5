"""Unit tests for cost-based query planning (spans, splitting, resolution)."""

from __future__ import annotations

from repro.query.catalog import RunEntry
from repro.query.planner import (balance_spans, plan_run, plan_spans,
                                 split_span)
from repro.replay.scheduler import IterationCosts


def costs_of(mean: float = 1.0, restore: float = 0.1,
             per: dict | None = None) -> IterationCosts:
    return IterationCosts(per_iteration=per or {}, mean_compute_seconds=mean,
                          restore_seconds=restore)


def entry_of(total: int = 10, aligned: tuple = (0, 3, 6),
             logged: tuple = ("loss",)) -> RunEntry:
    return RunEntry(run_id="r1", run_dir="/nowhere", workload="w",
                    storage_backend="local", started_at=0.0, wall_seconds=1.0,
                    main_loop_total=total, loop_blocks=("skipblock_0",),
                    checkpoint_count=len(aligned),
                    aligned_iterations=tuple(aligned), logged_values=logged,
                    execution_index_scheme=2, source_digest="abc")


class TestPlanSpans:
    def test_empty_wanted_produces_no_spans(self):
        assert plan_spans([], [0, 3], costs_of()) == []

    def test_dense_range_from_zero_is_one_unrestored_span(self):
        spans = plan_spans(range(6), [0, 1, 2, 3, 4, 5], costs_of())
        assert len(spans) == 1
        assert (spans[0].start, spans[0].stop) == (0, 6)
        assert spans[0].restore_index is None

    def test_span_starts_after_nearest_aligned_checkpoint(self):
        spans = plan_spans([4, 5], [0, 3], costs_of())
        assert len(spans) == 1
        assert (spans[0].start, spans[0].stop) == (4, 6)
        assert spans[0].restore_index == 3

    def test_checkpoint_gap_is_recomputed_not_skipped(self):
        # Wanted 5 with checkpoints at 0 and 3: the span must recompute 4
        # from checkpoint 3, never restore stale state into iteration 5.
        spans = plan_spans([5], [0, 3], costs_of())
        assert (spans[0].start, spans[0].stop) == (4, 6)
        assert spans[0].restore_index == 3

    def test_cheap_restores_split_sparse_groups(self):
        spans = plan_spans([2, 9], [1, 8], costs_of(mean=1.0, restore=0.1))
        assert [(s.start, s.stop, s.restore_index) for s in spans] == [
            (2, 3, 1), (9, 10, 8)]

    def test_expensive_gap_bridges_instead_of_restoring_backward(self):
        # Only checkpoint 1 exists: starting the second group fresh would
        # recompute 2..9 from checkpoint 1 anyway (plus a restore), so the
        # planner bridges the first span forward.
        spans = plan_spans([2, 9], [1], costs_of(mean=1.0, restore=0.1))
        assert [(s.start, s.stop, s.restore_index) for s in spans] == [
            (2, 10, 1)]

    def test_no_checkpoints_recomputes_whole_prefix(self):
        spans = plan_spans([3, 4], [], costs_of())
        assert [(s.start, s.stop, s.restore_index) for s in spans] == [
            (0, 5, None)]

    def test_spans_never_overlap(self):
        spans = plan_spans([1, 4, 7, 9], [0, 2, 5, 8],
                           costs_of(mean=1.0, restore=0.2))
        bounds = [(s.start, s.stop) for s in spans]
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert start >= stop

    def test_estimated_seconds_price_restore_and_compute(self):
        spans = plan_spans([4, 5], [0, 3], costs_of(mean=2.0, restore=0.5))
        assert spans[0].estimated_seconds == 0.5 + 2 * 2.0


class TestSplitSpan:
    def test_unsplittable_without_interior_checkpoint(self):
        [span] = plan_spans([1, 2], [0], costs_of())
        assert split_span(span, [0], costs_of()) == [span]

    def test_split_cuts_only_at_aligned_starts(self):
        [span] = plan_spans(range(12), list(range(12)), costs_of())
        pieces = split_span(span, [3, 7], costs_of(), parts=2)
        assert len(pieces) == 2
        assert pieces[0].start == 0
        assert pieces[1].start in (4, 8)  # aligned + 1
        assert pieces[1].restore_index == pieces[1].start - 1
        assert pieces[0].stop == pieces[1].start
        assert pieces[-1].stop == 12

    def test_split_preserves_coverage(self):
        [span] = plan_spans(range(20), list(range(20)), costs_of())
        pieces = split_span(span, [4, 9, 14], costs_of(), parts=4)
        covered = sorted(index for piece in pieces
                         for index in piece.iterations())
        assert covered == list(range(20))

    def test_compute_in_the_last_iteration_still_splits_in_two(self):
        costs = costs_of(mean=0.0, restore=0.1, per={5: 10.0})
        [span] = plan_spans(range(6), list(range(6)), costs)
        pieces = split_span(span, list(range(6)), costs, parts=2)
        assert [(p.start, p.stop) for p in pieces] == [(0, 5), (5, 6)]

    def test_restore_heavy_span_splits_into_parts_pieces(self):
        # Restore outweighs compute (a checkpointed block of microseconds
        # behind a costly restore): the shares are of compute alone, so
        # every one of the parts - 1 cuts lands.
        costs = costs_of(mean=1e-6, restore=0.5)
        aligned = list(range(12))
        [span] = plan_spans(range(1, 12), aligned, costs)
        assert span.restore_index == 0
        pieces = split_span(span, aligned, costs, parts=6)
        assert len(pieces) == 6
        assert sorted(len(p) for p in pieces) == [1, 2, 2, 2, 2, 2]
        assert all(p.restore_index == p.start - 1 for p in pieces)

    def test_fewer_aligned_starts_than_cuts_splits_at_each(self):
        [span] = plan_spans(range(12), list(range(12)), costs_of())
        pieces = split_span(span, [3, 7], costs_of(), parts=6)
        assert [(p.start, p.stop) for p in pieces] == [
            (0, 4), (4, 8), (8, 12)]


class TestBalanceSpans:
    def test_splits_heaviest_span_to_reach_target(self):
        costs = costs_of()
        aligned = list(range(12))
        [big] = plan_spans(range(12), aligned, costs)
        [small] = plan_spans([14], aligned + [13], costs)
        jobs = balance_spans([("a", big), ("b", small)],
                             {"a": aligned, "b": aligned + [13]},
                             {"a": costs, "b": costs}, target_jobs=3)
        assert len(jobs) == 3
        assert sum(1 for run_id, _ in jobs if run_id == "a") == 2

    def test_stops_when_nothing_splittable(self):
        costs = costs_of()
        [span] = plan_spans([1, 2], [0], costs)
        jobs = balance_spans([("a", span)], {"a": [0]}, {"a": costs},
                             target_jobs=4)
        assert len(jobs) == 1


class TestPlanRun:
    def test_resolution_prefers_logged_then_memo_then_replay(self):
        entry = entry_of()
        record_index = {("loss", 1): 0.9, ("loss", 2): 0.8, ("loss", 3): 0.7}
        memo_index = {"grad": {2: 5.0}}
        plan = plan_run(entry, ("loss", "grad"), (1, 2, 3),
                        record_index=record_index, memo_index=memo_index,
                        costs=costs_of(), replay_possible=True)
        assert plan.count("logged") == 3
        assert plan.count("memo") == 1
        assert plan.unresolved_cells == [("grad", 1), ("grad", 3)]
        assert plan.replay_iterations == (1, 3)
        # Bridging 2 is cheaper than a second restore hop back to 0.
        assert [(s.start, s.stop) for s in plan.spans] == [(1, 4)]

    def test_no_probe_source_means_no_jobs_for_unresolved(self):
        plan = plan_run(entry_of(), ("grad",), (1, 2),
                        record_index={}, memo_index={}, costs=costs_of(),
                        replay_possible=False)
        assert plan.spans == []
        assert plan.unresolved_cells == [("grad", 1), ("grad", 2)]

    def test_fully_resolved_run_schedules_no_spans(self):
        plan = plan_run(entry_of(), ("loss",), (1,),
                        record_index={("loss", 1): 0.5}, memo_index={},
                        costs=costs_of(), replay_possible=True)
        assert plan.spans == []
        assert plan.count("logged") == 1


def test_six_worker_fan_out_is_the_same_over_re_recordings(flor_config):
    """One 12-iteration run, 30 recordings: the planned job count of a
    6-worker query never varies.  Restore outweighs the checkpointed
    block's compute here (the sleep sits outside the block), the regime
    in which a restore-inclusive split target used to leave later spans
    whole."""
    from repro.query.api import prepare_query
    from serviceutils import probe_for, record_run

    probe = probe_for(iterations=12, iter_seconds=0.002)
    counts = []
    for _ in range(30):
        run_id = record_run(flor_config, iterations=12, iter_seconds=0.002)
        prepared = prepare_query(["state"], runs=run_id, source=probe,
                                 workers=6, memoize=False)
        try:
            counts.append(len(prepared.balanced_jobs()))
        finally:
            prepared.close()
    assert set(counts) == {6}, counts
