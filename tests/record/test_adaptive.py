"""Tests for the adaptive checkpointing controller (Joint Invariant, Eq. 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.record.adaptive import AdaptiveController


def run_epochs(controller: AdaptiveController, block: str, epochs: int,
               compute_seconds: float, payload_nbytes: int,
               materialize_seconds: float) -> int:
    """Drive the controller the way a SkipBlock does; return checkpoints made."""
    materialized = 0
    for _ in range(epochs):
        controller.observe_execution(block, compute_seconds)
        decision = controller.should_materialize(block, compute_seconds,
                                                 payload_nbytes)
        if decision.materialize:
            controller.observe_materialization(block, materialize_seconds,
                                               payload_nbytes)
            materialized += 1
    return materialized


class TestJointInvariant:
    def test_cheap_checkpoints_materialized_every_epoch(self):
        """Training workloads: materialization is negligible vs computation."""
        controller = AdaptiveController()
        controller._throughput = 1e9  # 1 GB/s
        count = run_epochs(controller, "train", epochs=50,
                           compute_seconds=10.0, payload_nbytes=10_000_000,
                           materialize_seconds=0.01)
        assert count == 50

    def test_expensive_checkpoints_materialized_sparsely(self):
        """Fine-tuning workloads: massive checkpoints, short epochs."""
        controller = AdaptiveController()
        controller._throughput = 1e8
        count = run_epochs(controller, "finetune", epochs=200,
                           compute_seconds=1.0, payload_nbytes=100_000_000,
                           materialize_seconds=1.0)
        assert 0 < count < 30

    def test_overhead_never_exceeds_tolerance(self):
        """The Record Overhead Invariant: k*M <= n*epsilon*C (within one ckpt)."""
        epsilon = 1.0 / 15.0
        controller = AdaptiveController(epsilon=epsilon)
        controller._throughput = 1e8
        compute, materialize = 1.0, 0.9
        count = run_epochs(controller, "b", epochs=300, compute_seconds=compute,
                           payload_nbytes=90_000_000,
                           materialize_seconds=materialize)
        overhead = count * materialize / (300 * compute)
        assert overhead <= epsilon + materialize / (300 * compute)

    def test_disabled_controller_always_materializes(self):
        controller = AdaptiveController(enabled=False)
        controller._throughput = 1.0  # absurdly slow; would never pass Eq. 4
        count = run_epochs(controller, "b", epochs=20, compute_seconds=0.001,
                           payload_nbytes=10_000_000, materialize_seconds=5.0)
        assert count == 20

    def test_first_execution_of_cheap_block_is_materialized(self):
        controller = AdaptiveController()
        controller.observe_execution("b", 10.0)
        decision = controller.should_materialize("b", 10.0, 1000)
        assert decision.materialize
        assert decision.ratio < decision.threshold

    def test_decision_reports_reason(self):
        controller = AdaptiveController()
        controller._throughput = 1e3
        controller.observe_execution("b", 0.001)
        decision = controller.should_materialize("b", 0.001, 10_000_000)
        assert not decision.materialize
        assert "expensive" in decision.reason

    @given(st.floats(0.01, 0.2), st.integers(10, 150),
           st.floats(0.01, 2.0), st.floats(0.001, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_overhead_invariant_property(self, epsilon, epochs, compute,
                                         materialize):
        """For any workload shape, total overhead stays within one checkpoint
        of the tolerance (the k+1 test guarantees the bound holds *after*
        each materialization)."""
        controller = AdaptiveController(epsilon=epsilon)
        payload = 1_000_000
        controller._throughput = payload / materialize
        count = run_epochs(controller, "b", epochs=epochs,
                           compute_seconds=compute, payload_nbytes=payload,
                           materialize_seconds=materialize)
        overhead = count * materialize
        budget = epochs * compute * epsilon
        assert overhead <= budget + materialize + 1e-9


class TestThresholdAndEstimates:
    def test_joint_threshold_grows_with_executions(self):
        controller = AdaptiveController()
        controller.observe_execution("b", 1.0)
        first = controller.joint_threshold("b")
        for _ in range(9):
            controller.observe_execution("b", 1.0)
        assert controller.joint_threshold("b") > first

    def test_joint_threshold_shrinks_with_checkpoints(self):
        controller = AdaptiveController()
        for _ in range(10):
            controller.observe_execution("b", 1.0)
        before = controller.joint_threshold("b")
        controller.observe_materialization("b", 0.1, 1000)
        assert controller.joint_threshold("b") < before

    def test_estimate_uses_observed_throughput(self):
        controller = AdaptiveController()
        initial = controller.estimate_materialize_seconds(10_000_000)
        # Observe a very slow materialization: the estimate must increase.
        controller.observe_materialization("b", seconds=10.0, nbytes=1_000_000)
        assert controller.estimate_materialize_seconds(10_000_000) > initial

    def test_estimate_zero_for_empty_payload(self):
        assert AdaptiveController().estimate_materialize_seconds(0) == 0.0

    def test_scaling_factor_refined_from_restores(self):
        controller = AdaptiveController(scaling_factor=1.0)
        controller.observe_restore("b", restore_seconds=2.0,
                                   materialize_seconds=1.0)
        assert controller.scaling_factor == pytest.approx(2.0)
        controller.observe_restore("b", restore_seconds=1.0,
                                   materialize_seconds=1.0)
        assert controller.scaling_factor == pytest.approx(1.5)

    def test_overhead_fraction_accounting(self):
        controller = AdaptiveController()
        controller.observe_execution("b", 10.0)
        controller.observe_materialization("b", 1.0, 1000)
        assert controller.overhead_fraction("b") == pytest.approx(0.1)
        assert controller.overhead_fraction() == pytest.approx(0.1)
        assert controller.overhead_fraction("missing") == 0.0

    def test_summary_contains_counters(self):
        controller = AdaptiveController()
        controller.observe_execution("b", 1.0)
        controller.observe_materialization("b", 0.5, 100)
        summary = controller.summary()
        assert summary["b"]["executions"] == 1
        assert summary["b"]["checkpoints"] == 1


class TestAsyncThroughputFeedback:
    """Async submits must not pollute the throughput model (enqueue time is
    not materialization time); only background completions refine it."""

    def test_inline_zero_nbytes_skips_throughput_blend(self):
        from repro.record.adaptive import (AdaptiveController,
                                           DEFAULT_THROUGHPUT_BYTES_PER_SECOND)
        controller = AdaptiveController()
        # An async submit: microseconds of enqueue time, nbytes withheld.
        controller.observe_materialization("train", 2e-5, 0)
        assert controller._throughput == DEFAULT_THROUGHPUT_BYTES_PER_SECOND
        assert controller.block("train").checkpoints == 1

    def test_background_completion_refines_throughput(self):
        from repro.record.adaptive import AdaptiveController
        controller = AdaptiveController()
        before = controller._throughput
        controller.observe_background_materialization("train", 0.1, 3_000_000)
        after = controller._throughput
        assert after != before
        # Blended toward the observed 30 MB/s, never toward enqueue rates.
        assert after < before
        assert controller.block("train").total_background_seconds == 0.1
        # k_i is counted at submit time, not again on completion.
        assert controller.block("train").checkpoints == 0

    def test_spool_materializer_feedback_keeps_estimates_sane(self, tmp_path):
        import time

        import numpy as np

        from repro.record.adaptive import AdaptiveController
        from repro.record.materializer import create_materializer
        from repro.storage.checkpoint_store import CheckpointStore
        from repro.storage.serializer import snapshot_value

        controller = AdaptiveController()
        store = CheckpointStore(tmp_path / "run")
        materializer = create_materializer(
            "spool", store,
            on_complete=controller.observe_background_materialization)
        payload = [snapshot_value("w", np.zeros(400_000, dtype=np.float32))]
        nbytes = payload[0].nbytes()
        for index in range(3):
            main_thread_seconds, _ = materializer.submit("train", index,
                                                         payload)
            # As the SkipBlock does: an async submit withholds nbytes.
            controller.observe_materialization("train", main_thread_seconds,
                                               0)
        materializer.close()
        # The model saw only real background rates: a 1.6 MB checkpoint
        # must not look instantaneous (the polluted model estimated ~us).
        estimate = controller.estimate_materialize_seconds(nbytes)
        elapsed = materializer.stats.spool_seconds / 3
        assert estimate > elapsed / 100
        assert controller.block("train").checkpoints == 3
        assert controller.block("train").total_background_seconds > 0
