"""Unit tests for the checkpoint-aware replay scheduler."""

from __future__ import annotations

import pytest

from repro.exceptions import ReplayError
from repro.replay.partition import WorkSegment
from repro.replay.scheduler import (InitPlan, IterationCosts,
                                    ReplayScheduler, aligned_checkpoints,
                                    candidate_starts, load_iteration_costs,
                                    plan_static_segments)
from repro.storage.backends import CheckpointRecord
from repro.storage.checkpoint_store import CheckpointStore


def make_store(tmp_path, checkpoints: dict[str, list[int]],
               loop_blocks: list[str] | None = None,
               iteration_stats: dict | None = None) -> CheckpointStore:
    """A store whose manifest claims the given checkpoints exist."""
    store = CheckpointStore(tmp_path / "run")
    for block_id, indices in checkpoints.items():
        for index in indices:
            store.backend.index_many([CheckpointRecord(
                block_id=block_id, execution_index=index,
                path=tmp_path / "x", raw_nbytes=10, stored_nbytes=5,
                digest="d", serialize_seconds=0.0, write_seconds=0.0,
                created_at=0.0)])
    if loop_blocks is not None:
        store.set_metadata("loop_blocks", loop_blocks)
    if iteration_stats is not None:
        store.set_metadata("iteration_stats", iteration_stats)
    return store


def covered(segments: list[WorkSegment]) -> list[int]:
    indices: list[int] = []
    for segment in segments:
        indices.extend(segment.indices())
    return indices


class TestAlignment:
    def test_aligned_is_intersection_across_loop_blocks(self, tmp_path):
        store = make_store(tmp_path, {"a": [0, 1, 3, 5], "b": [1, 2, 3]},
                           loop_blocks=["a", "b"])
        assert aligned_checkpoints(store, 6) == [1, 3]

    def test_blocks_outside_the_loop_do_not_constrain(self, tmp_path):
        store = make_store(tmp_path, {"a": [0, 2], "setup": [0]},
                           loop_blocks=["a"])
        assert aligned_checkpoints(store, 4) == [0, 2]

    def test_composite_and_out_of_range_indices_ignored(self, tmp_path):
        store = make_store(
            tmp_path, {"a": [0, 2, 9, 1_000_001]}, loop_blocks=["a"])
        assert aligned_checkpoints(store, 4) == [0, 2]

    def test_falls_back_to_stored_blocks_without_metadata(self, tmp_path):
        store = make_store(tmp_path, {"a": [0, 2]})
        assert aligned_checkpoints(store, 4) == [0, 2]

    def test_no_checkpoints_means_no_alignment(self, tmp_path):
        store = make_store(tmp_path, {}, loop_blocks=[])
        assert aligned_checkpoints(store, 10) == []

    def test_candidate_starts(self):
        assert candidate_starts(6, [1, 3]) == [0, 2, 4]
        assert candidate_starts(6, [5]) == [0]  # 5+1 == total: not a start
        assert candidate_starts(6, []) == [0]


class TestIterationCosts:
    def test_loads_recorded_stats(self, tmp_path):
        store = make_store(tmp_path, {}, iteration_stats={
            "per_iteration_compute_seconds": {"0": 2.0, "1": 4.0},
            "mean_compute_seconds": 3.0,
            "mean_materialize_seconds": 0.5,
            "estimated_restore_seconds": 0.7,
        })
        costs = load_iteration_costs(store)
        assert costs.compute(0) == 2.0
        assert costs.compute(7) == 3.0  # unmeasured -> mean
        assert costs.restore_seconds == 0.7

    def test_defaults_without_stats(self, tmp_path):
        store = make_store(tmp_path, {})
        costs = load_iteration_costs(store)
        assert costs.compute(0) > 0
        assert costs.replay_cost(0, restorable=True) > 0

    def test_replay_cost_prefers_restore_when_memoized(self):
        costs = IterationCosts(per_iteration={}, mean_compute_seconds=1.0,
                               restore_seconds=0.2)
        assert costs.replay_cost(0, restorable=True) == pytest.approx(0.2)
        assert costs.replay_cost(0, restorable=False) == pytest.approx(1.0)
        # Probed blocks re-execute even when memoized.
        assert costs.replay_cost(0, restorable=True,
                                 probed=True) == pytest.approx(1.0)


class TestStaticPlanning:
    UNIT = IterationCosts(per_iteration={}, mean_compute_seconds=1.0,
                          restore_seconds=0.1)

    def test_boundaries_land_on_aligned_starts(self):
        aligned = [2, 5, 8]
        segments = plan_static_segments(12, 3, aligned, self.UNIT)
        starts = {0, 3, 6, 9}
        assert covered(segments) == list(range(12))
        for segment in segments[1:]:
            if len(segment):
                assert segment.start in starts

    def test_full_alignment_degrades_to_balanced_split(self):
        segments = plan_static_segments(4, 2, [0, 1, 2, 3], self.UNIT)
        assert covered(segments) == [0, 1, 2, 3]
        assert all(len(segment) >= 1 for segment in segments)
        # The startup-free leading worker shoulders at least an even share.
        assert len(segments[0]) >= len(segments[1])

    def test_cost_skew_moves_the_boundary(self):
        # A probed replay re-executes everything; the first half is cheap,
        # the second expensive, so the cost-balanced cut lands past the
        # count-balanced midpoint of 6.
        aligned = list(range(12))
        costs = IterationCosts(
            per_iteration={i: (0.1 if i < 6 else 1.0) for i in range(12)},
            mean_compute_seconds=0.5, restore_seconds=0.01)
        segments = plan_static_segments(12, 2, aligned, costs, probed=True)
        assert segments[0].start == 0
        assert segments[0].stop > 6
        assert covered(segments) == list(range(12))

    def test_sparser_checkpoints_than_workers_leaves_workers_idle(self):
        segments = plan_static_segments(10, 4, [4], self.UNIT)
        assert covered(segments) == list(range(10))
        assert sum(1 for segment in segments if len(segment) == 0) >= 2

    def test_no_checkpoints_falls_back_to_uniform(self):
        segments = plan_static_segments(10, 3, [], self.UNIT)
        assert [len(segment) for segment in segments] == [4, 3, 3]

    def test_degenerate_totals(self):
        assert plan_static_segments(0, 3, [], self.UNIT) == [
            WorkSegment(0, 0)] * 3
        assert plan_static_segments(5, 1, [1], self.UNIT) == [
            WorkSegment(0, 5)]

    def test_more_workers_than_iterations(self):
        segments = plan_static_segments(3, 5, [0, 1, 2], self.UNIT)
        assert covered(segments) == [0, 1, 2]
        assert sum(1 for segment in segments if len(segment) == 0) >= 2


#: Cost models for the pinned plans below.
PLAN_COSTS = {
    "unit": IterationCosts(per_iteration={}, mean_compute_seconds=1.0,
                           restore_seconds=0.1),
    "skew": IterationCosts(
        per_iteration={i: (0.1 if i < 6 else 1.0) for i in range(12)},
        mean_compute_seconds=0.5, restore_seconds=0.01),
    "ramp": IterationCosts(per_iteration={i: float(i + 1) for i in range(40)},
                           mean_compute_seconds=2.0, restore_seconds=0.5),
    "free-restore": IterationCosts(per_iteration={},
                                   mean_compute_seconds=1.0,
                                   restore_seconds=0.0),
}

#: (total, workers, aligned, costs, probed) and the (start, stop) pairs
#: ``plan_static_segments`` returns for them.  Pinned so that any change to
#: the one replay plan, however small, shows up as a failing case.
PINNED_PLANS = [
    pytest.param(12, 3, [2, 5, 8], "unit", False,
                 [(0, 6), (6, 9), (9, 12)], id="sparse-3w"),
    pytest.param(12, 2, list(range(12)), "skew", True,
                 [(0, 9), (9, 12)], id="skewed-probed-2w"),
    pytest.param(10, 4, [4], "unit", False,
                 [(0, 5), (5, 10), (10, 10), (10, 10)], id="one-ckpt-4w"),
    pytest.param(10, 3, [], "unit", False,
                 [(0, 4), (4, 7), (7, 10)], id="no-ckpt-3w"),
    pytest.param(5, 2, [], "ramp", True,
                 [(0, 3), (3, 5)], id="no-ckpt-probed-2w"),
    pytest.param(3, 5, [0, 1, 2], "unit", False,
                 [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)],
                 id="more-workers-than-iterations"),
    pytest.param(8, 2, [0, 1, 2, 4, 5, 6], "unit", False,
                 [(0, 5), (5, 8)], id="dense-with-gaps-2w"),
    pytest.param(6, 2, [0, 3], "unit", False,
                 [(0, 4), (4, 6)], id="period-3-2w"),
    pytest.param(6, 2, [0, 4], "unit", False,
                 [(0, 5), (5, 6)], id="period-4-2w"),
    pytest.param(9, 4, [8], "unit", False,
                 [(0, 9), (9, 9), (9, 9), (9, 9)],
                 id="last-iteration-only-4w"),
    pytest.param(20, 4, list(range(0, 20, 3)), "unit", False,
                 [(0, 7), (7, 10), (10, 16), (16, 20)], id="every-third-4w"),
    pytest.param(20, 4, list(range(20)), "unit", True,
                 [(0, 5), (5, 10), (10, 15), (15, 20)],
                 id="dense-probed-4w"),
    pytest.param(16, 3, [1, 7, 11], "ramp", False,
                 [(0, 8), (8, 12), (12, 16)], id="ramp-3w"),
    pytest.param(16, 3, [1, 7, 11], "ramp", True,
                 [(0, 8), (8, 12), (12, 16)], id="ramp-probed-3w"),
    pytest.param(30, 8, list(range(0, 30, 2)), "free-restore", False,
                 [(0, 3), (3, 7), (7, 11), (11, 15), (15, 19), (19, 23),
                  (23, 27), (27, 30)], id="free-restore-8w"),
    pytest.param(7, 7, list(range(7)), "unit", False,
                 [(index, index + 1) for index in range(7)],
                 id="one-iteration-per-worker-7w"),
    pytest.param(40, 5, [9, 19, 29], "ramp", True,
                 [(0, 20), (20, 30), (30, 40), (40, 40), (40, 40)],
                 id="ramp-probed-5w"),
]


class TestPinnedStaticPlans:
    @pytest.mark.parametrize(
        "total, workers, aligned, costs, probed, expected", PINNED_PLANS)
    def test_plan(self, total, workers, aligned, costs, probed, expected):
        segments = plan_static_segments(total, workers, aligned,
                                        PLAN_COSTS[costs], probed=probed)
        assert [(s.start, s.stop) for s in segments] == expected
        assert covered(segments) == list(range(total))
        if aligned:
            starts = set(candidate_starts(total, aligned))
            assert all(s.start in starts for s in segments if len(s))


class TestInitPlans:
    def make_scheduler(self, tmp_path, checkpoints, total=8, strict=False):
        store = make_store(tmp_path, {"train": checkpoints},
                           loop_blocks=["train"])
        return ReplayScheduler(store, total, 2, strict=strict)

    def test_weak_with_exact_boundary_restores_only(self, tmp_path):
        scheduler = self.make_scheduler(tmp_path, [0, 1, 2, 3])
        plan = scheduler.init_plan(4, strong=False)
        assert plan == InitPlan(3, range(4, 4))
        assert plan.indices() == [3]

    def test_weak_with_gap_recomputes_forward(self, tmp_path):
        # Checkpoints at 0 and 1 only; a segment starting at 4 must restore
        # 1 and recompute 2..3 — not silently run from iteration 1's state.
        scheduler = self.make_scheduler(tmp_path, [0, 1])
        plan = scheduler.init_plan(4, strong=False)
        assert plan == InitPlan(1, range(2, 4))
        assert plan.indices() == [1, 2, 3]

    def test_weak_without_any_checkpoint_recomputes_from_scratch(
            self, tmp_path):
        scheduler = self.make_scheduler(tmp_path, [])
        with pytest.warns(UserWarning, match="no usable checkpoint"):
            plan = scheduler.init_plan(4, strong=False)
        assert plan == InitPlan(None, range(0, 4))

    def test_weak_without_any_checkpoint_raises_when_strict(self, tmp_path):
        scheduler = self.make_scheduler(tmp_path, [], strict=True)
        with pytest.raises(ReplayError, match="no usable checkpoint"):
            scheduler.init_plan(4, strong=False)

    def test_strong_recomputes_whole_prefix(self, tmp_path):
        scheduler = self.make_scheduler(tmp_path, [0, 1, 2])
        plan = scheduler.init_plan(4, strong=True)
        assert plan == InitPlan(None, range(0, 4))

    def test_segment_start_zero_needs_no_init(self, tmp_path):
        scheduler = self.make_scheduler(tmp_path, [0, 1])
        assert len(scheduler.init_plan(0, strong=False)) == 0
        assert len(scheduler.init_plan(0, strong=True)) == 0

    @pytest.mark.parametrize("start, strong, expected", [
        (3, False, InitPlan(2, range(3, 3))),
        (5, False, InitPlan(2, range(3, 5))),
        (6, False, InitPlan(5, range(6, 6))),
        (8, False, InitPlan(5, range(6, 8))),
        (6, True, InitPlan(None, range(0, 6))),
    ])
    def test_plan_from_sparse_checkpoints(self, tmp_path, start, strong,
                                          expected):
        # Checkpoints at 2 and 5: weak init restores the nearest one at or
        # before ``start - 1`` and recomputes the rest; strong ignores both.
        scheduler = self.make_scheduler(tmp_path, [2, 5])
        plan = scheduler.init_plan(start, strong=strong)
        assert plan == expected
        assert plan.indices() == expected.indices()

    @pytest.mark.parametrize("start", [1, 2])
    def test_weak_before_first_checkpoint_recomputes_or_raises(
            self, tmp_path, start):
        scheduler = self.make_scheduler(tmp_path, [2, 5])
        with pytest.warns(UserWarning, match="no usable checkpoint"):
            plan = scheduler.init_plan(start, strong=False)
        assert plan == InitPlan(None, range(0, start))
        strict = ReplayScheduler(scheduler.store, 8, 2, strict=True)
        with pytest.raises(ReplayError, match="no usable checkpoint"):
            strict.init_plan(start, strong=False)


class TestSchedulerFacade:
    def test_worker_segment_aligns_boundaries(self, tmp_path):
        store = make_store(tmp_path, {"train": [0, 1, 2, 4, 5, 6]},
                           loop_blocks=["train"])
        scheduler = ReplayScheduler(store, 8, 2)
        first = scheduler.worker_segment(0)
        second = scheduler.worker_segment(1)
        assert [first, second] == scheduler.static_segments()
        assert first.stop == second.start
        assert second.start - 1 in {0, 1, 2, 4, 5, 6}
        assert len(first) + len(second) == 8

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_worker_segments_are_the_static_plan(self, tmp_path,
                                                 num_workers):
        store = make_store(tmp_path, {"train": [1, 4, 6, 9]},
                           loop_blocks=["train"])
        scheduler = ReplayScheduler(store, 12, num_workers)
        segments = [scheduler.worker_segment(pid)
                    for pid in range(num_workers)]
        assert segments == scheduler.static_segments()
        assert covered(segments) == list(range(12))
        for segment in segments[1:]:
            if len(segment):
                assert segment.start - 1 in {1, 4, 6, 9}

    def test_no_checkpoints_falls_back_to_paper_split(self, tmp_path):
        store = make_store(tmp_path, {}, loop_blocks=[])
        scheduler = ReplayScheduler(store, 8, 2)
        assert scheduler.worker_segment(0) == WorkSegment(0, 4)
        assert scheduler.worker_segment(1) == WorkSegment(4, 8)

    def test_invalid_configuration_rejected(self, tmp_path):
        store = make_store(tmp_path, {})
        with pytest.raises(ReplayError):
            ReplayScheduler(store, -1, 2)
        with pytest.raises(ReplayError):
            ReplayScheduler(store, 8, 0)
        scheduler = ReplayScheduler(store, 8, 2)
        with pytest.raises(ReplayError):
            scheduler.worker_segment(5)
