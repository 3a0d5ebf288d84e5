"""Checkpoint storage: the persistence layer of hindsight logging.

The record phase turns loop state into Loop End Checkpoints; this package
owns everything that happens to them afterwards:

* :mod:`~repro.storage.serializer` — snapshots Python values (state-dict
  aware, so models checkpoint as weight arrays, not object graphs) and
  pickles snapshot lists into payload bytes, timing the work for the
  adaptive controller.
* :mod:`~repro.storage.compression` — gzip framing for payloads (Table 4
  reports compressed sizes), raw framing for incompressible ones, and the
  decoders for every frame older versions wrote.
* :mod:`~repro.storage.backends` — ``StorageBackend``: a run's SQLite
  ``Manifest`` (``manifest.sqlite``) over the home's object store.  The
  layout of an existing run is read from disk, so sharded runs written
  by older versions (one manifest per ``shards/shard-<k>/``) still open.
* :mod:`~repro.storage.checkpoint_store` — the facade every other module
  talks to: the one write path (whole or fixed-size chunks into the
  object store), digests, run metadata, source snapshots, and backend
  routing behind a stable API.
* :mod:`~repro.storage.spool` — :class:`AsyncSpool`, the bounded background
  materialization pipeline (worker pool, batched manifest commits,
  backpressure, a ``flush()`` barrier).
* :mod:`~repro.storage.objectstore` — the content-addressed payload plane:
  one blob per payload digest, shared by every run under a Flor home, so
  identical checkpoints (across executions *and* runs) dedup to one copy.
* :mod:`~repro.storage.lifecycle` — retention policies, manifest-first
  pruning, mark-and-sweep payload GC (inline, at close, or on the spool's
  background workers), and the home's storage-footprint accounting.
* :mod:`~repro.storage.costs` — the cloud pricing model behind the paper's
  storage-cost tables.

The durability contract threaded through all of it: payloads are written
before their manifest rows commit, and deleted only after no manifest row
references them — so the manifest never references a missing payload, in
either direction of the lifecycle.
"""

from .backends import StorageBackend
from .checkpoint_store import CheckpointStore
from .compression import compress, decompress
from .costs import INSTANCE_PRICES, InstanceType, storage_cost_per_month
from .lifecycle import (GCReport, LifecycleManager, PruneReport,
                        RetentionPolicy, StorageStats, collect_garbage,
                        measure_storage, prune_store, retire_run)
from .serializer import (ValueSnapshot, deserialize_checkpoint,
                         restore_value, serialize_checkpoint, snapshot_value)
from .spool import AsyncSpool

__all__ = [
    "CheckpointStore", "StorageBackend",
    "RetentionPolicy", "PruneReport", "GCReport", "StorageStats",
    "LifecycleManager", "prune_store", "retire_run",
    "collect_garbage", "measure_storage",
    "ValueSnapshot", "snapshot_value", "restore_value",
    "serialize_checkpoint", "deserialize_checkpoint",
    "compress", "decompress",
    "INSTANCE_PRICES", "InstanceType", "storage_cost_per_month",
    "AsyncSpool",
]
