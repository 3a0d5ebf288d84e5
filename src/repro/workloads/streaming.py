"""Streaming/continual record: unbounded epochs under a retention budget.

The second new workload family: a continual-learning job that trains on an
endless stream of data batches.  There is no final epoch to wait for, so
"keep every checkpoint" is not a policy — the run would grow without bound.
Instead a :class:`~repro.storage.lifecycle.RetentionPolicy` is
*load-bearing*: record proceeds while retention prune + payload GC run
periodically on the async spool's background workers
(``FlorConfig.gc_interval`` → :class:`LifecycleManager.on_manifest_commit`),
keeping the run's storage footprint bounded by policy rather than by epoch
count.  Replay of the surviving window stays correct by construction — the
scheduler derives restorable iterations from the manifest, so pruned
executions simply vanish from the aligned set.

:func:`build_streaming_script` renders one such continual trainer (a
bounded ``max_iterations`` stands in for "unbounded" so tests terminate);
:func:`run_streaming_record` records it under a retention-active config
and reports both the training outcome and what lifecycle did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..config import FlorConfig, get_config
from ..exceptions import WorkloadError
from ..storage.lifecycle import RetentionPolicy
from .registry import get_workload

__all__ = ["StreamingRecordResult", "DEFAULT_STREAMING_POLICY",
           "build_streaming_script", "run_streaming_record"]


#: A continual run keeps a sliding window of recent checkpoints per block.
DEFAULT_STREAMING_POLICY = RetentionPolicy(keep_last_n=8)


_STREAMING_SCRIPT_TEMPLATE = '''\
"""Miniature {name} continual trainer ({task}; streaming record)."""
import numpy as np
from repro import api as flor
from repro import torchlike as tl
from repro.workloads.training import dataset_for, make_training_setup

setup = make_training_setup({name!r}, seed={seed})
net = setup.net
optimizer = setup.optimizer
criterion = setup.criterion
base = dataset_for(setup.spec, seed={seed})

BATCH = setup.spec.mini_batch_size

for step in range({max_iterations}):
    # Each step trains on a fresh window of the stream: rotating slices of
    # the synthetic dataset stand in for never-before-seen batches.  The
    # nested micro-batch loop is the SkipBlock the instrumenter wraps, so
    # every step produces checkpoint traffic for retention to prune.
    for micro in range({micro_batches}):
        offset = ((step * {micro_batches} + micro) * BATCH) % len(base)
        indices = [(offset + j) % len(base) for j in range(BATCH)]
        inputs = np.stack([base[j][0] for j in indices])
        targets = np.stack([base[j][1] for j in indices])
        logits = net({forward})
        loss = criterion(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    flor.log("stream_loss", loss.item())
'''


def build_streaming_script(workload_name: str, max_iterations: int = 64,
                           seed: int = 0, micro_batches: int = 2) -> str:
    """Source text of a continual trainer over a synthetic data stream.

    The main loop is per-*step* (a few fresh micro-batches each), not
    per-epoch: checkpoint traffic is proportional to stream length, which
    is what makes retention load-bearing.  ``max_iterations`` bounds the
    stream so tests and benchmarks terminate; a production continual job
    would loop forever.
    """
    if max_iterations < 1:
        raise WorkloadError(
            f"max_iterations must be >= 1, got {max_iterations}")
    if micro_batches < 1:
        raise WorkloadError(f"micro_batches must be >= 1, got {micro_batches}")
    spec = get_workload(workload_name)
    wrap_inputs = spec.name.lower() in ("cifr", "rsnt", "imgn", "jasp")
    forward = "tl.Tensor(inputs)" if wrap_inputs else "inputs"
    return _STREAMING_SCRIPT_TEMPLATE.format(
        name=spec.name, task=spec.task, seed=seed,
        max_iterations=max_iterations, micro_batches=micro_batches,
        forward=forward)


@dataclass
class StreamingRecordResult:
    """Outcome of one streaming record: training result + lifecycle ledger."""

    run_id: str
    run_dir: Path
    iterations: int
    wall_seconds: float
    checkpoint_count: int  # manifest rows SURVIVING retention at close
    stored_nbytes: int
    lifecycle: dict = field(default_factory=dict)

    @property
    def lifecycle_passes(self) -> int:
        """Background + close-time prune/GC passes that ran during record."""
        return int(self.lifecycle.get("passes", 0))


def run_streaming_record(workload_name: str = "cifr",
                         max_iterations: int = 64, seed: int = 0,
                         micro_batches: int = 2,
                         policy: RetentionPolicy | None = None,
                         gc_interval: float | None = 0.05,
                         config: FlorConfig | None = None
                         ) -> StreamingRecordResult:
    """Record a continual trainer with retention pruning live on the spool.

    Forces the config into the streaming shape: an active retention
    ``policy`` (default: keep the last 8 checkpoints per block) and a
    ``gc_interval`` short enough that prune/GC genuinely overlap the
    recording — the crash-ordering guarantees (manifest-first prune,
    payload-last GC) are exercised *while* the writer is hot, not after it
    quiesced.  Pass ``gc_interval=None`` to prune only at session close.
    """
    from ..record.recorder import record_source

    config = config or get_config()
    policy = (policy if policy is not None
              else DEFAULT_STREAMING_POLICY).validate()
    config = config.with_overrides(
        retention_policy=policy,
        gc_interval=gc_interval)

    source = build_streaming_script(workload_name,
                                    max_iterations=max_iterations, seed=seed,
                                    micro_batches=micro_batches)
    start = time.perf_counter()
    recorded = record_source(source, name=f"{workload_name}-stream",
                             config=config)
    wall_seconds = time.perf_counter() - start

    from ..storage.checkpoint_store import CheckpointStore
    store = CheckpointStore(recorded.run_dir)
    try:
        lifecycle = store.get_metadata("lifecycle") or {}
        totals = store.totals()
    finally:
        store.close()
    return StreamingRecordResult(
        run_id=recorded.run_id,
        run_dir=recorded.run_dir,
        iterations=max_iterations,
        wall_seconds=wall_seconds,
        checkpoint_count=totals.checkpoints,
        stored_nbytes=totals.stored_nbytes,
        lifecycle=lifecycle,
    )
