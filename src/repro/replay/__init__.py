"""The replay phase: probe detection, partial replay, hindsight parallelism,
checkpoint-aware scheduling, and deferred correctness checks."""

from .consistency import ConsistencyReport, check_consistency, compare_logs
from .parallel import WorkerResult, run_parallel_replay, run_worker
from .partition import WorkSegment, partition_indices, segment_sizes
from .probe import SourceDiff, detect_probed_blocks, diff_sources
from .replayer import ReplayResult, replay_script
from .scheduler import (InitPlan, IterationCosts, ReplayScheduler,
                        aligned_checkpoints, plan_static_segments)

__all__ = [
    "WorkSegment", "partition_indices", "segment_sizes",
    "SourceDiff", "diff_sources", "detect_probed_blocks",
    "ConsistencyReport", "compare_logs", "check_consistency",
    "WorkerResult", "run_worker", "run_parallel_replay",
    "ReplayResult", "replay_script",
    "InitPlan", "IterationCosts", "ReplayScheduler",
    "aligned_checkpoints", "plan_static_segments",
]
