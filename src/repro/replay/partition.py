"""Uniform iterator partitioning for hindsight parallelism (Section 5.4.1).

The paper splits the main loop's iterator into as many contiguous segments
as there are parallel workers and assigns one segment per worker.  Work is
balanced so segment sizes differ by at most one — with 200 epochs over 16
workers, the largest share is 13 epochs, which is exactly the load-
balancing limit the paper reports for Figure 13.

This count-balanced split assumes every boundary is restorable, which
adaptive checkpointing does not guarantee; replay normally plans segments
through :mod:`repro.replay.scheduler`, which aligns boundaries to
materialized checkpoints and balances by estimated cost, and falls back to
:func:`partition_indices` only for runs with no usable checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReplayError

__all__ = ["WorkSegment", "partition_indices", "segment_sizes"]


@dataclass(frozen=True)
class WorkSegment:
    """A contiguous range of main-loop iteration indices owned by one worker."""

    start: int
    stop: int

    def __len__(self) -> int:
        return max(self.stop - self.start, 0)

    def indices(self) -> range:
        return range(self.start, self.stop)

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.stop


def partition_indices(total: int, num_workers: int, pid: int) -> WorkSegment:
    """Contiguous, balanced partition of ``range(total)`` for worker ``pid``.

    The first ``total % num_workers`` workers receive one extra iteration.
    Workers beyond ``total`` receive empty segments.
    """
    if total < 0:
        raise ReplayError(f"iteration count must be non-negative, got {total}")
    if num_workers < 1:
        raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
    if not 0 <= pid < num_workers:
        raise ReplayError(
            f"pid must be in [0, {num_workers}), got {pid}")

    base, remainder = divmod(total, num_workers)
    start = pid * base + min(pid, remainder)
    size = base + (1 if pid < remainder else 0)
    return WorkSegment(start=start, stop=start + size)


def segment_sizes(total: int, num_workers: int) -> list[int]:
    """Sizes of every worker's segment (useful for load-balance analysis)."""
    return [len(partition_indices(total, num_workers, pid))
            for pid in range(num_workers)]
