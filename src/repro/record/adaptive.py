"""Adaptive checkpointing (Section 5.3).

Flor must never exceed a user-specifiable record overhead (the Record
Overhead Invariant, Eq. 1) and must guarantee that record-plus-replay beats
two vanilla executions (the Replay Latency Invariant, Eq. 3).  Both reduce
to the Joint Invariant tested per loop after it executes, but before its
checkpoint is materialized (Eq. 4):

    M_i / C_i  <  ( n_i / (k_i + 1) ) * min( 1 / (1 + c),  epsilon )

where ``M_i`` is the expected materialization time of the loop's checkpoint,
``C_i`` its computation time, ``n_i`` how many times the loop has executed
so far, ``k_i`` how many checkpoints have been materialized so far, ``c``
the restore/materialize scaling factor, and ``epsilon`` the overhead
tolerance.  The ``k_i + 1`` accounts for the checkpoint under consideration.

The controller estimates ``M_i`` from the payload size and an online
throughput estimate (bytes/second of past materializations), and refines
``c`` from observed restore times — the paper starts with ``c = 1.0`` and
reports a measured average of ``c = 1.38`` across its workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DEFAULT_EPSILON, DEFAULT_SCALING_FACTOR

__all__ = ["BlockStats", "CheckpointDecision", "AdaptiveController"]

#: Throughput assumed before any materialization has been observed
#: (conservative serialized-bytes-per-second figure for pickling + disk).
DEFAULT_THROUGHPUT_BYTES_PER_SECOND = 200e6


@dataclass
class BlockStats:
    """Per-SkipBlock counters (the symbols of Table 2)."""

    executions: int = 0            # n_i
    checkpoints: int = 0           # k_i
    total_compute_seconds: float = 0.0
    total_materialize_seconds: float = 0.0
    total_background_seconds: float = 0.0
    total_restore_seconds: float = 0.0
    last_decision: "CheckpointDecision | None" = None

    @property
    def mean_compute_seconds(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.total_compute_seconds / self.executions


@dataclass(frozen=True)
class CheckpointDecision:
    """Outcome of one Joint Invariant test."""

    materialize: bool
    ratio: float            # M_i / C_i as estimated
    threshold: float        # right-hand side of Eq. 4
    estimated_materialize_seconds: float
    compute_seconds: float
    reason: str = ""


@dataclass
class AdaptiveController:
    """Decides, per loop execution, whether to materialize its checkpoint."""

    epsilon: float = DEFAULT_EPSILON
    scaling_factor: float = DEFAULT_SCALING_FACTOR
    enabled: bool = True
    stats: dict[str, BlockStats] = field(default_factory=dict)
    #: Compute seconds per main-loop iteration (summed over the iteration's
    #: SkipBlock executions) — the replay scheduler's cost model.
    iteration_seconds: dict[int, float] = field(default_factory=dict)
    _throughput: float = DEFAULT_THROUGHPUT_BYTES_PER_SECOND
    _observed_ratios: list[float] = field(default_factory=list)
    #: EWMA of measured per-checkpoint restore seconds.  Replay sessions
    #: persist it back into ``iteration_stats`` (telemetry on), replacing
    #: the ``scaling_factor * mean_materialize`` prior in the query
    #: planner's and replay scheduler's cost models.
    restore_ewma: float = 0.0
    restore_observations: int = 0

    # ------------------------------------------------------------------ #
    # Observation API (called by the SkipBlock / materializer)
    # ------------------------------------------------------------------ #
    def block(self, block_id: str) -> BlockStats:
        return self.stats.setdefault(block_id, BlockStats())

    def observe_execution(self, block_id: str, compute_seconds: float,
                          iteration: int | None = None) -> None:
        """Record that a loop executed, taking ``compute_seconds``.

        ``iteration`` is the enclosing main-loop iteration (when there is
        one); its per-iteration total feeds the replay scheduler's
        recompute-cost estimates.
        """
        entry = self.block(block_id)
        entry.executions += 1
        entry.total_compute_seconds += max(compute_seconds, 0.0)
        if iteration is not None:
            self.iteration_seconds[iteration] = (
                self.iteration_seconds.get(iteration, 0.0)
                + max(compute_seconds, 0.0))

    def observe_materialization(self, block_id: str, seconds: float,
                                nbytes: int) -> None:
        """Record a completed materialization; refines the throughput model."""
        entry = self.block(block_id)
        entry.checkpoints += 1
        entry.total_materialize_seconds += max(seconds, 0.0)
        if seconds > 0 and nbytes > 0:
            observed = nbytes / seconds
            # Exponentially-weighted blend keeps the estimate adaptive.
            self._throughput = 0.7 * self._throughput + 0.3 * observed

    def observe_background_materialization(self, block_id: str,
                                           seconds: float,
                                           nbytes: int) -> None:
        """Record an asynchronously completed materialization.

        Called from the spool's completion callback.  Unlike
        :meth:`observe_materialization` this neither increments ``k_i``
        (the SkipBlock already counted the checkpoint at submit time) nor
        charges the record hot path; it only refines the throughput model
        with the *real* background serialize+compress+write rate, which
        the submit-time main-thread measurement of an async strategy
        cannot see.
        """
        entry = self.block(block_id)
        entry.total_background_seconds += max(seconds, 0.0)
        if seconds > 0 and nbytes > 0:
            observed = nbytes / seconds
            self._throughput = 0.7 * self._throughput + 0.3 * observed

    def observe_restore(self, block_id: str, restore_seconds: float,
                        materialize_seconds: float | None = None) -> None:
        """Refine the restore/materialize scaling factor ``c`` (Eq. 3)."""
        entry = self.block(block_id)
        entry.total_restore_seconds += max(restore_seconds, 0.0)
        observed = max(restore_seconds, 0.0)
        if self.restore_observations == 0:
            self.restore_ewma = observed
        else:
            self.restore_ewma = 0.7 * self.restore_ewma + 0.3 * observed
        self.restore_observations += 1
        if materialize_seconds and materialize_seconds > 0:
            self._observed_ratios.append(restore_seconds / materialize_seconds)
            self.scaling_factor = (
                sum(self._observed_ratios) / len(self._observed_ratios))

    # ------------------------------------------------------------------ #
    # The Joint Invariant (Eq. 4)
    # ------------------------------------------------------------------ #
    def estimate_materialize_seconds(self, nbytes: int) -> float:
        """Expected time to serialize + write ``nbytes`` of checkpoint."""
        if nbytes <= 0:
            return 0.0
        return nbytes / max(self._throughput, 1.0)

    def joint_threshold(self, block_id: str) -> float:
        """Right-hand side of Eq. 4 for the block's current counters."""
        entry = self.block(block_id)
        n_i = max(entry.executions, 1)
        k_i = entry.checkpoints
        return (n_i / (k_i + 1)) * min(1.0 / (1.0 + self.scaling_factor),
                                       self.epsilon)

    def should_materialize(self, block_id: str, compute_seconds: float,
                           payload_nbytes: int) -> CheckpointDecision:
        """Test the Joint Invariant for one just-finished loop execution.

        The test runs *after* the execution but *before* materialization,
        hence ``k_i + 1`` in the threshold.  When adaptivity is disabled
        (the Figure 7 ablation) every execution is materialized.
        """
        estimated = self.estimate_materialize_seconds(payload_nbytes)
        if not self.enabled:
            decision = CheckpointDecision(
                materialize=True, ratio=0.0, threshold=float("inf"),
                estimated_materialize_seconds=estimated,
                compute_seconds=compute_seconds,
                reason="adaptive checkpointing disabled")
            self.block(block_id).last_decision = decision
            return decision

        compute = max(compute_seconds, 1e-9)
        ratio = estimated / compute
        threshold = self.joint_threshold(block_id)
        materialize = ratio < threshold
        decision = CheckpointDecision(
            materialize=materialize, ratio=ratio, threshold=threshold,
            estimated_materialize_seconds=estimated,
            compute_seconds=compute_seconds,
            reason=("joint invariant satisfied" if materialize else
                    "materialization too expensive relative to computation"))
        self.block(block_id).last_decision = decision
        return decision

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def overhead_fraction(self, block_id: str | None = None) -> float:
        """Materialization overhead as a fraction of computation time."""
        if block_id is not None:
            entries = [self.block(block_id)]
        else:
            entries = list(self.stats.values())
        compute = sum(entry.total_compute_seconds for entry in entries)
        materialize = sum(entry.total_materialize_seconds for entry in entries)
        if compute <= 0:
            return 0.0
        return materialize / compute

    def summary(self) -> dict[str, dict]:
        """Per-block counters, suitable for storing as run metadata."""
        return {
            block_id: {
                "executions": entry.executions,
                "checkpoints": entry.checkpoints,
                "total_compute_seconds": entry.total_compute_seconds,
                "total_materialize_seconds": entry.total_materialize_seconds,
                "total_background_seconds": entry.total_background_seconds,
                "total_restore_seconds": entry.total_restore_seconds,
            }
            for block_id, entry in self.stats.items()
        }

    def iteration_stats(self) -> dict:
        """Per-iteration timing statistics for the replay scheduler.

        Persisted into store metadata at record-session close, this is what
        lets replay balance work segments by *estimated recompute + restore
        cost* instead of iteration count.  Background (spool) timings stand
        in for main-thread materialization seconds when available — they
        are the real serialize+compress+write cost.
        """
        executions = sum(entry.executions for entry in self.stats.values())
        checkpoints = sum(entry.checkpoints for entry in self.stats.values())
        compute = sum(entry.total_compute_seconds
                      for entry in self.stats.values())
        materialize = sum(entry.total_background_seconds
                          or entry.total_materialize_seconds
                          for entry in self.stats.values())
        mean_compute = compute / executions if executions else 0.0
        mean_materialize = materialize / checkpoints if checkpoints else 0.0
        stats = {
            "per_iteration_compute_seconds": {
                str(iteration): round(seconds, 6)
                for iteration, seconds in sorted(
                    self.iteration_seconds.items())},
            "mean_compute_seconds": round(mean_compute, 6),
            "mean_materialize_seconds": round(mean_materialize, 6),
            "estimated_restore_seconds": round(
                self.scaling_factor * mean_materialize, 6),
        }
        if self.restore_observations:
            stats["observed_restore_seconds"] = round(self.restore_ewma, 6)
            stats["restore_observations"] = self.restore_observations
        return stats
