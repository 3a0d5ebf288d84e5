"""Configuration for Flor record/replay sessions.

The paper exposes a single meaningful knob to the user — the record overhead
tolerance ``epsilon`` (Section 5.3, Eq. 1) — and fixes a handful of internal
constants (the restore/materialize scaling factor ``c`` and so on).  This
module keeps all of them — plus the storage-backend and async-spool knobs
this reproduction adds on the road to multi-run scale — in one dataclass so
sessions, simulators and benchmarks share a single source of truth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

from .exceptions import ConfigError, StorageError
from .storage.lifecycle import RetentionPolicy

#: Overhead tolerance used throughout the paper's evaluation: 6.67% (1/15).
DEFAULT_EPSILON = 1.0 / 15.0

#: Initial restore/materialize scaling factor (Section 5.3.2); refined online.
DEFAULT_SCALING_FACTOR = 1.0

#: Average scaling factor measured across the paper's workloads (Table 3).
PAPER_MEASURED_SCALING_FACTOR = 1.38

#: Default directory in which runs store checkpoints, logs and source copies.
DEFAULT_HOME = Path(os.environ.get("FLOR_HOME", "~/.flor_repro")).expanduser()

#: Default shard count for the sharded storage backend.
DEFAULT_STORAGE_SHARDS = 4

#: Default worker-pool size of the async materialization spool.
DEFAULT_SPOOL_WORKERS = 2

#: Default bound on in-flight checkpoints before ``submit`` backpressures.
DEFAULT_SPOOL_QUEUE_SIZE = 64

#: Default number of manifest rows per batched commit.
DEFAULT_MANIFEST_BATCH_SIZE = 16

#: Default process-pool size for hindsight-query replay jobs.
DEFAULT_QUERY_WORKERS = 2

#: Default target chunk size for delta checkpoints (256 KiB).
DEFAULT_CHUNK_NBYTES = 1 << 18

#: Default span ring-buffer capacity for the telemetry flight recorder.
DEFAULT_TELEMETRY_BUFFER = 4096

#: Default replay-worker pool size of the hindsight query service.
DEFAULT_SERVICE_WORKERS = 2

#: Default admission-queue bound of the hindsight query service.
DEFAULT_SERVICE_QUEUE_SIZE = 16

#: Default seconds a draining service waits for in-flight requests.
DEFAULT_SERVICE_DRAIN_SECONDS = 30.0


@dataclass(frozen=True)
class FlorConfig:
    """Immutable configuration shared by record and replay sessions.

    Parameters
    ----------
    home:
        Root directory for run artifacts.  Each run gets
        ``<home>/<run_id>/`` containing the checkpoint store, the record
        log, and the snapshot of the source code taken at record time.
    epsilon:
        Record overhead tolerance (Eq. 1).  Materialization time for a loop
        must stay below ``epsilon`` times its computation time.
    scaling_factor:
        Initial estimate of ``c`` in ``R_i = c * M_i`` (Eq. 3).
    adaptive_checkpointing:
        When False, every SkipBlock execution is memoized regardless of the
        Joint Invariant — the "adaptivity disabled" ablation in Figure 7.
    compress_checkpoints:
        Gzip-compress payloads before they hit disk (Table 4 reports
        compressed sizes).
    strict_consistency:
        When True, deferred correctness checks raise instead of warning.
    storage_backend:
        Checkpoint storage backend: ``"local"`` (single SQLite manifest +
        payload tree, the default), ``"memory"`` (process-local, for tests
        and benchmarks) or ``"sharded"`` (checkpoints partitioned by
        ``hash(block_id) % storage_shards``, one manifest per shard).
        Reopening an existing run auto-detects its backend, so replay
        never needs this to match the record-time value.
    storage_shards:
        Shard count for the ``"sharded"`` backend.  Persisted in the
        run's ``shards.json`` at record time; the persisted value wins on
        reopen.
    spool_workers:
        Worker-pool size of the async spool, the one record-time
        materializer: how many checkpoints serialize/compress/write
        concurrently.
    spool_queue_size:
        Bound on checkpoints in flight in the spool.  When the queue is
        full, ``submit`` blocks (backpressure) so record-time memory stays
        bounded regardless of checkpoint traffic.
    manifest_batch_size:
        Manifest rows the spool buffers before one batched transactional
        commit.  Larger batches amortize commit overhead; ``flush()``
        commits any remainder.
    query_workers:
        Process-pool size for the hindsight query engine's batched replay
        jobs.  Jobs from *different* runs (and disjoint spans of the same
        run) execute concurrently, so one multi-run query saturates
        ``query_workers`` processes.
    query_memoize:
        When True (the default), values computed by query-driven replay are
        written back through the run's storage backend, so repeated and
        overlapping queries are served from storage instead of recompute.
    dedup:
        Content-address checkpoint payloads (the default): one physical
        blob per payload digest in the home-shared object store, so
        identical checkpoints across executions and across runs cost one
        copy.  ``False`` keeps the legacy one-file-per-execution layout.
        Reads follow the manifest's recorded locations, so either setting
        replays runs recorded under the other.
    chunking:
        Delta checkpoints: split each serialized payload into
        content-addressed chunks and store only chunks whose digest is
        new, so consecutive epochs pay for what changed.  ``"fixed"``
        (the default) cuts ``chunk_nbytes`` slices restarting at tensor
        boundaries; ``"cdc"`` places content-defined boundaries with a
        rolling hash (robust to insertions); ``"off"`` stores payloads
        whole.  Requires ``dedup``; reads follow the manifest, so any
        setting replays runs recorded under any other.
    chunk_nbytes:
        Target chunk size for delta checkpoints.  ``"cdc"`` chunks range
        over ``[chunk_nbytes / 4, chunk_nbytes * 4]``.
    codec:
        Compression codec for checkpoint payloads (when
        ``compress_checkpoints`` is on): ``"gzip"`` (the default, the
        paper's codec), ``"zlib"``, ``"lzma"`` or ``"raw"`` (framing
        only, never compress).  Every codec skips chunks / payloads a
        cheap content sample finds incompressible (float tensor bytes)
        and stores those raw-framed; compressible state still compresses.
    codec_level:
        Compression level passed to the codec (codec-specific default
        when ``None``; clamped to the codec's valid range).
    gc_interval:
        Seconds between background lifecycle passes (retention prune +
        payload GC) on the async spool's workers during record.  ``None``
        (the default) disables background passes; session close and
        ``repro.gc()`` still run them.
    retention_policy:
        A :class:`~repro.storage.lifecycle.RetentionPolicy` applied to
        each recording run (on background passes when ``gc_interval`` is
        set, and at session close).  ``None`` keeps every checkpoint.
    telemetry:
        Turn on the flight recorder (``repro.telemetry``): structured
        spans around the record loop, spool, storage, replay and query
        seams plus aggregate metrics, captured into a bounded in-memory
        ring buffer and persisted as ``"telemetry"`` store metadata at
        session close.  Off by default; the instrumentation reduces to a
        single flag check when disabled.  When on, observed restore
        durations also refine the adaptive controller's and query
        planner's cost models (EWMA over measured values replaces the
        ``scaling_factor`` prior).
    telemetry_buffer:
        Capacity (in spans) of the telemetry ring buffer.  Old spans
        fall off the back, so tracing an arbitrarily long run costs
        bounded memory.
    service_workers:
        Replay-worker pool size of the hindsight query service
        (``python -m repro.serve``): how many query-driven replay jobs
        execute concurrently across *all* connected clients.  One bounded
        pool serves every tenant; the service's weighted round-robin
        scheduler decides whose job gets the next free slot.
    service_queue_size:
        Bound on admitted-but-unfinished service requests.  A request
        arriving past the bound is rejected immediately with a typed
        ``SERVICE_BUSY`` error carrying a retry-after hint — admission
        control never queues unboundedly and never hangs the client.
    service_drain_seconds:
        How long a draining service (SIGTERM or ``shutdown`` op) waits
        for in-flight requests to finish before closing anyway.
    strict_analysis:
        When True, record open fails with a :class:`RecordError` if the
        replay-safety lint (``repro.analysis.lint``) finds any
        warning-or-worse diagnostic in the script — unseeded RNG, wall
        clock reads in loop bodies, and friends.  The default (False)
        emits :class:`~repro.exceptions.ReplaySafetyWarning` and records
        anyway, matching the paper's warn-don't-abort posture.
    """

    home: Path = field(default_factory=lambda: DEFAULT_HOME)
    epsilon: float = DEFAULT_EPSILON
    scaling_factor: float = DEFAULT_SCALING_FACTOR
    adaptive_checkpointing: bool = True
    compress_checkpoints: bool = True
    strict_consistency: bool = False
    storage_backend: str = "local"
    storage_shards: int = DEFAULT_STORAGE_SHARDS
    spool_workers: int = DEFAULT_SPOOL_WORKERS
    spool_queue_size: int = DEFAULT_SPOOL_QUEUE_SIZE
    manifest_batch_size: int = DEFAULT_MANIFEST_BATCH_SIZE
    query_workers: int = DEFAULT_QUERY_WORKERS
    query_memoize: bool = True
    service_workers: int = DEFAULT_SERVICE_WORKERS
    service_queue_size: int = DEFAULT_SERVICE_QUEUE_SIZE
    service_drain_seconds: float = DEFAULT_SERVICE_DRAIN_SECONDS
    dedup: bool = True
    chunking: str = "fixed"
    chunk_nbytes: int = DEFAULT_CHUNK_NBYTES
    codec: str = "gzip"
    codec_level: int | None = None
    gc_interval: float | None = None
    retention_policy: RetentionPolicy | None = None
    strict_analysis: bool = False
    telemetry: bool = False
    telemetry_buffer: int = DEFAULT_TELEMETRY_BUFFER

    #: Not a knob: the async spool is the only materializer.  Kept as a
    #: constant because the perfbench layer pass still passes it to
    #: ``create_materializer``; drop it with that call.
    background_materialization: ClassVar[str] = "spool"

    _VALID_BACKENDS = ("local", "memory", "sharded")
    _VALID_CHUNKING = ("off", "fixed", "cdc")
    _VALID_CODECS = ("raw", "gzip", "zlib", "lzma")

    def __post_init__(self) -> None:
        object.__setattr__(self, "home", Path(self.home).expanduser())
        self.validate()

    def validate(self) -> "FlorConfig":
        """Check every knob and raise :class:`ConfigError` on the first bad one.

        All validation lives here (not scattered across the record/replay
        machinery), so a typo'd enum value like ``chunking="fixd"``
        fails at construction with a message naming the knob and its valid
        values — instead of deep inside a replay worker.  Returns ``self``
        so callers can chain ``FlorConfig(...).validate()``.
        """
        if self.epsilon <= 0 or self.epsilon >= 1:
            raise ConfigError(
                f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.scaling_factor <= 0:
            raise ConfigError(
                f"scaling_factor must be positive, got {self.scaling_factor!r}")
        self._check_choice("storage_backend", self.storage_backend,
                           self._VALID_BACKENDS)
        self._check_at_least_one("storage_shards", self.storage_shards)
        self._check_at_least_one("spool_workers", self.spool_workers)
        self._check_at_least_one("spool_queue_size", self.spool_queue_size)
        self._check_at_least_one("manifest_batch_size",
                                 self.manifest_batch_size)
        self._check_at_least_one("query_workers", self.query_workers)
        self._check_at_least_one("service_workers", self.service_workers)
        self._check_at_least_one("service_queue_size",
                                 self.service_queue_size)
        if (not isinstance(self.service_drain_seconds, (int, float))
                or isinstance(self.service_drain_seconds, bool)
                or self.service_drain_seconds <= 0):
            raise ConfigError(
                f"service_drain_seconds must be a positive number of "
                f"seconds, got {self.service_drain_seconds!r}")
        if not isinstance(self.dedup, bool):
            raise ConfigError(f"dedup must be a bool, got {self.dedup!r}")
        self._check_choice("chunking", self.chunking, self._VALID_CHUNKING)
        if self.codec == "auto":
            raise ConfigError(
                'codec="auto" was removed: every codec now samples each '
                "chunk / payload and stores incompressible bytes raw-framed "
                f"on its own; pick one of {self._VALID_CODECS}")
        self._check_choice("codec", self.codec, self._VALID_CODECS)
        if (not isinstance(self.chunk_nbytes, int)
                or isinstance(self.chunk_nbytes, bool)
                or self.chunk_nbytes < 1024):
            # A floor keeps recipes (one digest per chunk) and per-chunk
            # hashing overhead sane; delta granularity below 1 KiB buys
            # nothing on tensor payloads.
            raise ConfigError(f"chunk_nbytes must be an integer >= 1024, "
                              f"got {self.chunk_nbytes!r}")
        if self.codec_level is not None and (
                not isinstance(self.codec_level, int)
                or isinstance(self.codec_level, bool)
                or not 0 <= self.codec_level <= 9):
            raise ConfigError(f"codec_level must be an integer in [0, 9] or "
                              f"None, got {self.codec_level!r}")
        if not isinstance(self.strict_analysis, bool):
            raise ConfigError(f"strict_analysis must be a bool, "
                              f"got {self.strict_analysis!r}")
        if not isinstance(self.telemetry, bool):
            raise ConfigError(
                f"telemetry must be a bool, got {self.telemetry!r}")
        if (not isinstance(self.telemetry_buffer, int)
                or isinstance(self.telemetry_buffer, bool)
                or self.telemetry_buffer < 16):
            # Below ~16 spans the buffer cannot even hold one record
            # iteration's worth of nested spans; the ring would thrash.
            raise ConfigError(f"telemetry_buffer must be an integer >= 16, "
                              f"got {self.telemetry_buffer!r}")
        if self.gc_interval is not None and (
                not isinstance(self.gc_interval, (int, float))
                or isinstance(self.gc_interval, bool)
                or self.gc_interval <= 0):
            raise ConfigError(
                f"gc_interval must be a positive number of seconds or "
                f"None, got {self.gc_interval!r}")
        if self.retention_policy is not None:
            if not isinstance(self.retention_policy, RetentionPolicy):
                raise ConfigError(
                    f"retention_policy must be a RetentionPolicy or None, "
                    f"got {type(self.retention_policy).__name__}")
            try:
                self.retention_policy.validate()
            except StorageError as exc:
                raise ConfigError(f"retention_policy invalid: {exc}") from exc
        return self

    @staticmethod
    def _check_choice(name: str, value, valid: tuple) -> None:
        if value not in valid:
            raise ConfigError(f"{name} must be one of {valid}, got {value!r}")

    @staticmethod
    def _check_at_least_one(name: str, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, "
                              f"got {value!r}")

    def with_overrides(self, **kwargs) -> "FlorConfig":
        """Return a copy of this configuration with ``kwargs`` replaced."""
        return replace(self, **kwargs)

    def run_dir(self, run_id: str) -> Path:
        """Directory holding every artifact of run ``run_id``."""
        return self.home / run_id


_active_config: FlorConfig | None = None


def get_config() -> FlorConfig:
    """Return the process-wide configuration, creating a default if unset."""
    global _active_config
    if _active_config is None:
        _active_config = FlorConfig()
    return _active_config


def set_config(config: FlorConfig) -> FlorConfig:
    """Install ``config`` as the process-wide configuration and return it."""
    global _active_config
    if not isinstance(config, FlorConfig):
        raise ConfigError(f"expected FlorConfig, got {type(config).__name__}")
    _active_config = config
    return config


def reset_config() -> None:
    """Drop the process-wide configuration (used by tests)."""
    global _active_config
    _active_config = None
