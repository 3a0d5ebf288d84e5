"""Tests for configuration, exceptions and small utilities."""

from __future__ import annotations

import dataclasses
import re

import pytest

import repro
from repro.config import FlorConfig, get_config, reset_config, set_config
from repro.exceptions import ConfigError, FlorError
from repro.utils.hashing import digest_bytes, digest_file, stable_hash
from repro.utils.naming import new_run_id, slugify
from repro.utils.timing import Stopwatch, VirtualClock, format_duration


class TestConfig:
    def test_defaults(self):
        config = FlorConfig()
        assert config.epsilon == pytest.approx(1 / 15)
        assert config.adaptive_checkpointing
        assert config.compress_checkpoints

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlorConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            FlorConfig(epsilon=1.5)
        with pytest.raises(ConfigError):
            FlorConfig(scaling_factor=-1)

    def test_validate_names_the_knob_and_its_choices(self):
        with pytest.raises(ConfigError, match=r"chunking must be one of"):
            FlorConfig(chunking="fixd")
        with pytest.raises(ConfigError,
                           match=r"storage_backend must be one of"):
            FlorConfig(storage_backend="s3")

    def test_validate_rejects_non_positive_counts(self):
        for knob in ("storage_shards", "spool_workers", "spool_queue_size",
                     "manifest_batch_size", "query_workers"):
            with pytest.raises(ConfigError, match=rf"{knob} must be"):
                FlorConfig(**{knob: 0})

    def test_validate_rejects_non_integer_counts(self):
        with pytest.raises(ConfigError, match="query_workers must be"):
            FlorConfig(query_workers=2.5)

    def test_validate_returns_self_for_chaining(self):
        config = FlorConfig()
        assert config.validate() is config

    def test_query_knob_defaults(self):
        config = FlorConfig()
        assert config.query_workers >= 1
        assert config.query_memoize is True

    def test_with_overrides_returns_new_instance(self, tmp_path):
        config = FlorConfig(home=tmp_path)
        other = config.with_overrides(epsilon=0.1)
        assert other.epsilon == pytest.approx(0.1)
        assert config.epsilon == pytest.approx(1 / 15)
        assert other.home == config.home

    def test_run_dir(self, tmp_path):
        config = FlorConfig(home=tmp_path)
        assert config.run_dir("abc") == tmp_path / "abc"

    def test_global_config_management(self, tmp_path):
        reset_config()
        default = get_config()
        assert isinstance(default, FlorConfig)
        custom = FlorConfig(home=tmp_path)
        assert set_config(custom) is custom
        assert get_config() is custom
        reset_config()
        assert get_config() is not custom

    def test_set_config_type_checked(self):
        with pytest.raises(ConfigError):
            set_config("not a config")
        reset_config()

    def test_exception_hierarchy(self):
        assert issubclass(repro.RecordError, FlorError)
        assert issubclass(repro.ReplayAnomalyError, repro.ReplayError)
        assert issubclass(repro.CheckpointNotFoundError, repro.ReplayError)
        assert issubclass(repro.SerializationError, repro.StorageError)


def test_knob_census():
    """Every ``FlorConfig`` knob by name, so adding or removing one shows."""
    assert sorted(field.name for field in dataclasses.fields(FlorConfig)) == [
        "adaptive_checkpointing",
        "chunk_nbytes", "chunking", "codec", "codec_level",
        "compress_checkpoints", "dedup", "epsilon",
        "gc_interval", "home", "manifest_batch_size", "query_memoize",
        "query_workers", "retention_policy", "scaling_factor",
        "service_drain_seconds", "service_queue_size", "service_workers",
        "spool_queue_size", "spool_workers", "storage_backend",
        "storage_shards", "strict_analysis", "strict_consistency",
        "telemetry", "telemetry_buffer",
    ]


def test_background_materialization_is_not_a_knob():
    """The spool is the only materializer: the name is a constant."""
    with pytest.raises(TypeError, match="background_materialization"):
        FlorConfig(background_materialization="fork")
    assert FlorConfig().background_materialization == "spool"


def test_record_export_census():
    """Every name ``repro.record`` exports, so adding or removing one shows."""
    import repro.record
    assert sorted(repro.record.__all__) == [
        "AdaptiveController", "BlockStats", "CheckpointDecision",
        "LogManager", "LogRecord", "RecordResult", "SkipBlock",
        "create_materializer", "merge_logs", "read_log", "record_script",
        "record_source",
    ]


def test_storage_export_census():
    """Every name ``repro.storage`` exports, so adding or removing one shows.

    One concrete ``StorageBackend`` serves every layout; the per-layout
    backend classes are gone and must not come back as exports.
    """
    import repro.storage
    assert sorted(repro.storage.__all__) == [
        "AsyncSpool", "AsyncSpoolStats", "BACKEND_NAMES", "CheckpointRecord",
        "CheckpointStore", "CompressionResult", "FileObjectStore",
        "GCReport", "GiB", "INSTANCE_PRICES", "InstanceType",
        "LifecycleManager", "MemoryObjectStore", "ObjectStoreStats",
        "PayloadObjectStore", "PruneReport", "RetentionPolicy",
        "S3_PRICE_PER_GB_MONTH", "SerializedCheckpoint", "StorageBackend",
        "StorageStats", "ValueSnapshot", "collect_garbage", "compress",
        "compression_ratio", "compute_cost", "decompress",
        "deserialize_checkpoint", "gb", "measure_storage", "plan_retention",
        "prune_store", "resolve_backend", "restore_value", "retire_run",
        "serialize_checkpoint", "snapshot_value", "storage_cost_per_month",
    ]
    for name in repro.storage.__all__:
        assert hasattr(repro.storage, name), name



def test_package_export_census():
    """Every name ``repro`` exports (76), so adding or removing one shows."""
    import repro
    assert sorted(repro.__all__) == [
        "CheckpointNotFoundError", "ConfigError", "Diagnostic",
        "DiagnosticReport", "DiffResult", "DiffStats", "ExplainReport",
        "FlorConfig", "FlorError", "GCReport", "InitStrategy",
        "InstrumentationError", "JobGroup", "Mode", "Phase", "ProbeAnalysis",
        "ProbeClass", "PruneReport", "QueryError", "QueryResult",
        "QueryStats", "RecordError", "RecordResult", "ReplayAnomalyError",
        "ReplayError", "ReplayResult", "ReplaySafetyError",
        "ReplaySafetyWarning", "RetentionPolicy", "RunCatalog", "RunEntry",
        "SerializationError", "ServiceBusy", "ServiceClient", "ServiceError",
        "Session", "Severity", "SideEffectAnalysisError", "SimulationError",
        "StorageError", "StorageStats", "ValueDrift", "WorkerResult",
        "WorkloadError", "__version__", "analysis", "analyze_probe", "api",
        "connect", "diff", "explain", "gc", "get_active_session",
        "get_config", "lint_path", "lint_run", "lint_source", "log", "loop",
        "prune", "query", "record", "record_script", "record_session",
        "record_source", "replay", "replay_script", "replay_session",
        "reset_config", "run_parallel_replay", "set_config", "skipblock",
        "storage", "storage_stats", "telemetry", "torchlike",
    ]
    assert len(set(repro.__all__)) == len(repro.__all__) == 76
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_analysis_export_census():
    """Every name ``repro.analysis`` exports (40)."""
    import repro.analysis
    assert sorted(repro.analysis.__all__) == [
        "BlockSpec", "CODES", "Changeset", "Diagnostic", "DiagnosticReport",
        "FLOR_MODULE_ALIAS", "InstrumentationResult", "LoopAnalysis",
        "ProbeAnalysis", "ProbeClass", "ProbeStatement", "RuleApplication",
        "SAFE_BUILTINS", "ScriptAnalysis", "Severity", "StatementFacts",
        "analyze_loop", "analyze_probe", "analyze_script",
        "apply_rules_to_statement", "augment_changeset", "bound_names",
        "build_changeset", "clear_augmentation_rules", "code_title",
        "default_rules", "evaluate_pure_logged", "extract_probe_statements",
        "find_loops", "instrument_source", "lint_determinism", "lint_path",
        "lint_run", "lint_source", "loop_scoped_names", "names_bound_before",
        "record_changeset_names", "register_augmentation_rule",
        "statement_facts", "suppressed_codes",
    ]
    assert len(set(repro.analysis.__all__)) == len(repro.analysis.__all__)
    for name in repro.analysis.__all__:
        assert hasattr(repro.analysis, name), name

class TestNaming:
    def test_slugify(self):
        assert slugify("ResNet-152 on Cifar100!") == "resnet-152-on-cifar100"
        assert slugify("   ") == "run"
        assert len(slugify("x" * 200)) <= 48

    def test_new_run_id_unique_and_sortable(self):
        first = new_run_id("My Experiment")
        second = new_run_id("My Experiment")
        assert first != second
        assert first.startswith("my-experiment-")
        assert re.match(r"^[a-z0-9\-]+-\d{8}T\d{6}-[0-9a-f]{8}$", first)


class TestHashing:
    def test_digest_bytes_and_stable_hash(self):
        assert digest_bytes(b"abc") == stable_hash("abc")
        assert digest_bytes(b"abc") != digest_bytes(b"abd")
        assert len(digest_bytes(b"")) == 64

    def test_digest_file(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"hello" * 1000)
        assert digest_file(path) == digest_bytes(b"hello" * 1000)


class TestTiming:
    def test_stopwatch_context_manager(self):
        with Stopwatch() as stopwatch:
            total = sum(range(10000))
        assert total > 0
        assert stopwatch.elapsed >= 0

    def test_stopwatch_requires_start(self):
        stopwatch = Stopwatch()
        with pytest.raises(RuntimeError):
            stopwatch.stop()
        with pytest.raises(RuntimeError):
            stopwatch.lap()

    def test_stopwatch_lap(self):
        stopwatch = Stopwatch().start()
        assert stopwatch.lap() >= 0
        assert stopwatch.stop() >= 0

    def test_virtual_clock(self):
        clock = VirtualClock()
        clock.advance(10.0, "epoch 0")
        clock.advance(5.0)
        assert clock.now == pytest.approx(15.0)
        assert clock.history == [(10.0, "epoch 0")]
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        clock.reset()
        assert clock.now == 0.0

    def test_format_duration(self):
        assert format_duration(5) == "5s"
        assert format_duration(65) == "1m 5s"
        assert format_duration(3725) == "1h 2m 5s"
        assert format_duration(0) == "0s"
        assert format_duration(-65) == "-1m 5s"
        assert format_duration(3600) == "1h"

    def test_format_duration_sub_second(self):
        # Sub-second durations get millisecond/microsecond granularity
        # instead of collapsing to "0s" (span durations live down here).
        assert format_duration(0.25) == "250ms"
        assert format_duration(0.0021) == "2.1ms"
        assert format_duration(0.010) == "10ms"
        assert format_duration(0.00003) == "30µs"
        assert format_duration(0.0000005) == "<1µs"
        assert format_duration(0.9999) == "1s"
        assert format_duration(-0.25) == "-250ms"
