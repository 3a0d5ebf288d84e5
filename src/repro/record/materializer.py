"""Background checkpoint materialization (Section 5.1).

Materializing a checkpoint means serializing Python objects and writing the
bytes to disk.  Doing that on the main thread stalls model training, so Flor
pushes the work into the background.  The paper's Figure 5 compares
strategies for that (an inline cloudpickle baseline, IPC queues, fork) to
pick one mechanism; this reproduction ships one as well: the bounded
:class:`~repro.storage.spool.AsyncSpool`, whose worker threads serialize,
encode and write off the hot path, commit manifest rows in batches, and
backpressure the training thread when the queue fills.  The Figure 5
baselines live on as a benchmark (``benchmarks/bench_fig5_materialization.py``).
"""

from __future__ import annotations

from ..exceptions import RecordError
from ..storage.checkpoint_store import CheckpointStore
from ..storage.spool import AsyncSpool

__all__ = ["create_materializer"]


def create_materializer(name: str, store: CheckpointStore, config=None,
                        **kwargs) -> AsyncSpool:
    """The record-time materializer: an :class:`AsyncSpool` on ``store``.

    ``name`` must be ``"spool"``, the only strategy.  When a
    :class:`~repro.config.FlorConfig` is passed, pool sizing defaults to
    the configured values; explicit ``kwargs`` still win.
    """
    if name != "spool":
        raise RecordError(f"unknown materializer {name!r}; known: ['spool']")
    if config is not None:
        kwargs.setdefault("workers", config.spool_workers)
        kwargs.setdefault("queue_size", config.spool_queue_size)
        kwargs.setdefault("batch_size", config.manifest_batch_size)
    return AsyncSpool(store, **kwargs)
