"""The record phase driver (Section 3.1).

``record_script`` takes a plain training script, instruments it (SkipBlocks
around nested training loops, the Flor generator around the main loop),
executes it under a record-mode session, and leaves behind everything the
replay phase needs: the checkpoint store, the record log, the snapshot of
the original source, and the instrumentation metadata.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.instrument import InstrumentationResult, instrument_source
from ..analysis.lint import lint_source
from ..config import FlorConfig, get_config
from ..exceptions import RecordError, ReplaySafetyWarning
from ..modes import Mode
from ..record.logger import LogRecord
from ..session import Session
from ..utils.naming import new_run_id
from ..utils.timing import monotonic

__all__ = ["RecordResult", "record_script", "record_source"]

#: Filename under which the user's original source is snapshotted.
ORIGINAL_SOURCE_NAME = "script.py"
#: Filename under which the instrumented source is kept (for inspection).
INSTRUMENTED_SOURCE_NAME = "script.instrumented.py"


@dataclass
class RecordResult:
    """Summary of one record-phase execution."""

    run_id: str
    run_dir: Path
    wall_seconds: float
    materialization_main_thread_seconds: float
    checkpoint_count: int
    stored_nbytes: int
    storage_backend: str = "local"
    log_records: list[LogRecord] = field(default_factory=list)
    instrumentation: InstrumentationResult | None = None

    @property
    def overhead_fraction(self) -> float:
        """Record overhead as a fraction of total wall time (approximate)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.materialization_main_thread_seconds / self.wall_seconds


def record_script(script_path: str | Path, name: str | None = None,
                  config: FlorConfig | None = None,
                  script_globals: dict | None = None,
                  run_id: str | None = None) -> RecordResult:
    """Record a training script stored on disk."""
    script_path = Path(script_path)
    if not script_path.exists():
        raise RecordError(f"training script not found: {script_path}")
    source = script_path.read_text(encoding="utf-8")
    return record_source(source, name=name or script_path.stem, config=config,
                         script_globals=script_globals, run_id=run_id)


def record_source(source: str, name: str | None = None,
                  config: FlorConfig | None = None,
                  script_globals: dict | None = None,
                  run_id: str | None = None) -> RecordResult:
    """Instrument and record a training script given as source text.

    ``run_id`` overrides the generated identifier.  Distributed recorders
    use this to record under a worker identity
    (:func:`~repro.utils.naming.worker_run_id`, ``<job>@<rank>``) so the
    catalog can group K worker runs back into one logical job; the caller
    owns uniqueness — recording twice under one id overwrites in place.
    """
    config = config or get_config()
    run_id = run_id or new_run_id(name)

    # Replay-safety lint runs before any run directory exists, so a strict
    # failure leaves nothing behind.  Warnings don't block: the paper's
    # posture is warn-and-record, with replay-time checks as the backstop.
    lint_report = lint_source(source, filename=f"{name or 'script'}.py")
    hazards = lint_report.at_least("warning")
    if hazards:
        if config.strict_analysis:
            raise RecordError(
                "strict_analysis: script failed the replay-safety lint\n"
                + hazards.render_text())
        warnings.warn(
            "script has replay-safety hazards (set strict_analysis=True "
            "to fail instead):\n" + hazards.render_text(),
            ReplaySafetyWarning, stacklevel=2)

    instrumentation = instrument_source(source)

    session = Session(run_id=run_id, mode=Mode.RECORD, config=config)
    session.register_blocks(instrumentation.blocks)
    session.store.save_source(ORIGINAL_SOURCE_NAME, source)
    session.store.save_source(INSTRUMENTED_SOURCE_NAME,
                              instrumentation.instrumented_source)
    # The workload name groups runs of the same experiment in the multi-run
    # catalog ("my last 8 cifar runs"), independent of the unique run id.
    session.store.set_metadata("workload", name or "script")
    if lint_report:
        session.store.set_metadata("lint", lint_report.to_payload())

    exec_globals = {"__name__": "__main__", "__file__": ORIGINAL_SOURCE_NAME}
    if script_globals:
        exec_globals.update(script_globals)

    start = monotonic()
    code = compile(instrumentation.instrumented_source, ORIGINAL_SOURCE_NAME,
                   "exec")
    with session:
        exec(code, exec_globals)  # noqa: S102 - executing the user's own script
    wall_seconds = monotonic() - start

    totals = session.store.totals()
    return RecordResult(
        run_id=run_id,
        run_dir=session.run_dir,
        wall_seconds=wall_seconds,
        materialization_main_thread_seconds=
            session.materializer.stats.main_thread_seconds,
        checkpoint_count=totals.checkpoints,
        stored_nbytes=totals.stored_nbytes,
        storage_backend=session.store.backend.name,
        log_records=list(session.logs.records),
        instrumentation=instrumentation,
    )
