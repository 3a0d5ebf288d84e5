"""Checkpoint storage: the persistence layer of hindsight logging.

The record phase turns loop state into Loop End Checkpoints; this package
owns everything that happens to them afterwards:

* :mod:`~repro.storage.serializer` — snapshots Python values (state-dict
  aware, so models checkpoint as weight arrays, not object graphs) and
  pickles snapshot lists into payload bytes, timing the work for the
  adaptive controller.
* :mod:`~repro.storage.compression` — gzip codec for payloads (Table 4
  reports compressed sizes).
* :mod:`~repro.storage.backends` — one SQLite ``Manifest`` class under
  three layouts: ``local`` (one manifest file), ``memory`` (one manifest
  on SQLite ``:memory:``, for tests/benchmarks) and ``sharded``
  (checkpoints partitioned by ``sha256(block_id) % num_shards``, one
  manifest per shard), behind one concrete ``StorageBackend``.
* :mod:`~repro.storage.checkpoint_store` — the facade every other module
  talks to: compression, digests, run metadata, source snapshots, and
  backend routing behind a stable API.
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

from .backends import BACKEND_NAMES, StorageBackend, resolve_backend
from .checkpoint_store import CheckpointRecord, CheckpointStore
from .compression import CompressionResult, compress, compression_ratio, decompress
from .costs import (GiB, INSTANCE_PRICES, InstanceType, S3_PRICE_PER_GB_MONTH,
                    compute_cost, gb, storage_cost_per_month)
from .lifecycle import (GCReport, LifecycleManager, PruneReport,
                        RetentionPolicy, StorageStats, collect_garbage,
                        measure_storage, plan_retention, prune_store,
                        retire_run)
from .objectstore import (FileObjectStore, MemoryObjectStore,
                          ObjectStoreStats, PayloadObjectStore)
from .serializer import (SerializedCheckpoint, ValueSnapshot,
                         deserialize_checkpoint, restore_value,
                         serialize_checkpoint, snapshot_value)
from .spool import AsyncSpool, AsyncSpoolStats

__all__ = [
    "CheckpointStore", "CheckpointRecord",
    "StorageBackend", "resolve_backend", "BACKEND_NAMES",
    "PayloadObjectStore", "FileObjectStore", "MemoryObjectStore",
    "ObjectStoreStats",
    "RetentionPolicy", "PruneReport", "GCReport", "StorageStats",
    "LifecycleManager", "plan_retention", "prune_store", "retire_run",
    "collect_garbage", "measure_storage",
    "ValueSnapshot", "SerializedCheckpoint", "snapshot_value", "restore_value",
    "serialize_checkpoint", "deserialize_checkpoint",
    "compress", "decompress", "compression_ratio", "CompressionResult",
    "S3_PRICE_PER_GB_MONTH", "INSTANCE_PRICES", "InstanceType",
    "storage_cost_per_month", "compute_cost", "gb", "GiB",
    "AsyncSpool", "AsyncSpoolStats",
]
