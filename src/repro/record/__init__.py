"""The record phase: logging, adaptive checkpointing, background
materialization, the SkipBlock construct, and the record-script driver."""

from .adaptive import AdaptiveController, BlockStats, CheckpointDecision
from .logger import LogManager, LogRecord, merge_logs, read_log
from .materializer import create_materializer
from .recorder import RecordResult, record_script, record_source
from .skipblock import SkipBlock

__all__ = [
    "LogRecord", "LogManager", "read_log", "merge_logs",
    "AdaptiveController", "BlockStats", "CheckpointDecision",
    "create_materializer",
    "SkipBlock",
    "RecordResult", "record_script", "record_source",
]
