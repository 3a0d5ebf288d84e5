"""The multi-run catalog: an index of every recorded execution.

A hindsight query starts from "which runs?"; the catalog answers it without
the user tracking run ids by hand.  Opening the catalog scans the Flor home
for run directories (any storage backend — the store's layout sniffing does
the detection) and builds one :class:`RunEntry` per run: workload, loop
shape, checkpoint density, logged value names, timing.  Entries are
persisted *into each run's own store* through the existing
``StorageBackend`` metadata APIs, so reopening the catalog is metadata
reads, not manifest scans; an entry is rebuilt automatically when its
fingerprint (schema version + checkpoint count) no longer matches the
store — the LSST lesson of keeping the catalog derivable from the data it
indexes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from ..config import FlorConfig, get_config
from ..record.logger import read_log
from ..replay.scheduler import aligned_checkpoints
from ..storage.backends import SHARD_MANIFEST_NAME
from ..storage.checkpoint_store import CheckpointStore
from ..storage.lifecycle import (DEFAULT_GC_GRACE_SECONDS, PruneReport,
                                 collect_garbage, retire_run)
from ..utils.naming import split_worker_run_id
from .memo import source_digest

__all__ = ["CATALOG_METADATA_KEY", "CATALOG_SCHEMA_VERSION", "RunEntry",
           "JobGroup", "RunCatalog", "looks_like_run_dir"]

#: Store-metadata key under which a run's catalog entry is persisted.
CATALOG_METADATA_KEY = "catalog_entry"

#: Bumped whenever :class:`RunEntry` gains or changes fields; a persisted
#: entry with an older version is rebuilt on open.  v2 added ``retired``.
CATALOG_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunEntry:
    """Everything the query planner needs to know about one recorded run."""

    run_id: str
    run_dir: str
    workload: str
    storage_backend: str
    started_at: float
    wall_seconds: float
    main_loop_total: int
    loop_blocks: tuple[str, ...]
    checkpoint_count: int
    #: Main-loop iterations restorable across *every* loop block (the
    #: scheduler's aligned set) — the planner's restore points.
    aligned_iterations: tuple[int, ...]
    logged_values: tuple[str, ...]
    execution_index_scheme: int
    source_digest: str
    #: True once the run's checkpoints were released through
    #: :meth:`RunCatalog.retire` — logged values and metadata remain
    #: queryable, but nothing is replayable from checkpoints any more.
    retired: bool = False

    @property
    def checkpoint_density(self) -> float:
        """Fraction of main-loop iterations that are exactly restorable."""
        if self.main_loop_total <= 0:
            return 0.0
        return len(self.aligned_iterations) / self.main_loop_total

    @property
    def job_id(self) -> str:
        """The logical job this run belongs to.

        For a distributed worker run (``<job>@<rank>``) this is the shared
        job id; for an ordinary run it is the run id itself — every run
        belongs to exactly one logical job, singleton or not.  Derived from
        the run id, so no catalog schema bump was needed.
        """
        return split_worker_run_id(self.run_id)[0]

    @property
    def worker_rank(self) -> int | None:
        """This run's rank within its data-parallel job, or None."""
        return split_worker_run_id(self.run_id)[1]

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["schema_version"] = CATALOG_SCHEMA_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunEntry":
        return cls(
            run_id=payload["run_id"],
            run_dir=payload["run_dir"],
            workload=payload["workload"],
            storage_backend=payload["storage_backend"],
            started_at=float(payload["started_at"]),
            wall_seconds=float(payload["wall_seconds"]),
            main_loop_total=int(payload["main_loop_total"]),
            loop_blocks=tuple(payload["loop_blocks"]),
            checkpoint_count=int(payload["checkpoint_count"]),
            aligned_iterations=tuple(payload["aligned_iterations"]),
            logged_values=tuple(payload["logged_values"]),
            execution_index_scheme=int(payload["execution_index_scheme"]),
            source_digest=payload["source_digest"],
            retired=bool(payload.get("retired", False)),
        )


@dataclass(frozen=True)
class JobGroup:
    """The merged catalog view of one logical data-parallel job.

    Groups the ``<job_id>@<rank>`` worker runs recorded by one distributed
    job back into a single queryable unit.  The group is *derived* — it
    holds the member :class:`RunEntry` objects, ordered by rank, and
    answers job-level questions (which ranks reported in, what every worker
    logged) without any job-level state on disk.
    """

    job_id: str
    workers: tuple[RunEntry, ...]

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(entry.run_id for entry in self.workers)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(entry.worker_rank for entry in self.workers
                     if entry.worker_rank is not None)

    @property
    def world_size(self) -> int:
        """Workers the job *should* have: one past the highest rank seen."""
        ranks = self.ranks
        return (max(ranks) + 1) if ranks else len(self.workers)

    @property
    def missing_ranks(self) -> tuple[int, ...]:
        """Ranks with no cataloged run — workers that died before closing
        their manifest (or whose record never started)."""
        present = set(self.ranks)
        if not present:
            # A singleton group of ordinary (rank-less) runs has no rank
            # roster to be missing from.
            return ()
        return tuple(rank for rank in range(self.world_size)
                     if rank not in present)

    @property
    def complete(self) -> bool:
        return not self.missing_ranks

    @property
    def workload(self) -> str:
        return self.workers[0].workload if self.workers else ""

    @property
    def logged_values(self) -> tuple[str, ...]:
        """Value names every worker logged (answerable job-wide)."""
        if not self.workers:
            return ()
        common = set(self.workers[0].logged_values)
        for entry in self.workers[1:]:
            common &= set(entry.logged_values)
        return tuple(name for name in self.workers[0].logged_values
                     if name in common)

    @property
    def checkpoint_count(self) -> int:
        return sum(entry.checkpoint_count for entry in self.workers)

    def worker(self, rank: int) -> RunEntry | None:
        for entry in self.workers:
            if entry.worker_rank == rank:
                return entry
        return None

    def __len__(self) -> int:
        return len(self.workers)


def looks_like_run_dir(path: Path) -> bool:
    """Whether ``path`` plausibly holds a recorded run, on any backend."""
    if not path.is_dir():
        return False
    return ((path / "manifest.sqlite").exists()
            or (path / SHARD_MANIFEST_NAME).exists()
            or (path / "record.log").exists()
            or (path / "source").is_dir())


def _source_digest(run_dir: Path) -> str:
    """Digest of the recorded script, in the memo cache's normalization —
    directly comparable with the digest keying memo entries."""
    script = run_dir / "source" / "script.py"
    if not script.exists():
        return ""
    return source_digest(script.read_text(encoding="utf-8"))


def build_entry(run_dir: Path, store: CheckpointStore) -> RunEntry:
    """Index one run from its store metadata (and record.log as fallback)."""
    run_id = store.get_metadata("run_id") or run_dir.name
    total = store.get_metadata("main_loop_total")
    if total is None:
        recorded = store.get_metadata("iterations_run") or []
        total = (max(recorded) + 1) if recorded else 0
    loop_blocks = store.get_metadata("loop_blocks")
    logged = store.get_metadata("logged_values")
    if logged is None:
        # Runs recorded before logged_values metadata existed: derive the
        # names from the record log once, then persist them via the entry.
        seen: list[str] = []
        for record in read_log(run_dir / "record.log"):
            if record.name not in seen:
                seen.append(record.name)
        logged = seen
    environment = store.get_metadata("environment") or {}
    aligned = aligned_checkpoints(store, int(total), loop_blocks=loop_blocks)
    return RunEntry(
        run_id=run_id,
        run_dir=str(run_dir),
        workload=store.get_metadata("workload") or "",
        storage_backend=store.backend.name,
        started_at=float(environment.get("started_at")
                         or run_dir.stat().st_mtime),
        wall_seconds=float(environment.get("wall_seconds") or 0.0),
        main_loop_total=int(total),
        loop_blocks=tuple(loop_blocks or ()),
        checkpoint_count=store.totals().checkpoints,
        aligned_iterations=tuple(aligned),
        logged_values=tuple(logged),
        execution_index_scheme=int(
            store.get_metadata("execution_index_scheme", 1)),
        source_digest=_source_digest(run_dir),
    )


class RunCatalog:
    """All recorded runs under one Flor home, queryable by id and workload."""

    def __init__(self, config: FlorConfig | None = None):
        self.config = config or get_config()
        self.entries: dict[str, RunEntry] = {}

    @classmethod
    def open(cls, config: FlorConfig | None = None) -> "RunCatalog":
        """Scan the Flor home and load (or rebuild) every run's entry."""
        catalog = cls(config)
        catalog.refresh()
        return catalog

    def refresh(self) -> "RunCatalog":
        self.entries = {}
        home = Path(self.config.home)
        if not home.exists():
            return self
        for run_dir in sorted(home.iterdir()):
            if not looks_like_run_dir(run_dir):
                continue
            entry = self._load_or_build(run_dir)
            if entry is not None:
                self.entries[entry.run_id] = entry
        return self

    def _load_or_build(self, run_dir: Path) -> RunEntry | None:
        store = CheckpointStore.for_config(run_dir, self.config)
        try:
            persisted = store.get_metadata(CATALOG_METADATA_KEY)
            if persisted is not None and self._fresh(persisted, store):
                return RunEntry.from_dict(persisted)
            entry = build_entry(run_dir, store)
            store.set_metadata(CATALOG_METADATA_KEY, entry.to_dict())
            return entry
        finally:
            store.close()

    @staticmethod
    def _fresh(persisted: dict, store: CheckpointStore) -> bool:
        """Whether a persisted entry still describes the store behind it."""
        if persisted.get("schema_version") != CATALOG_SCHEMA_VERSION:
            return False
        try:
            return int(persisted["checkpoint_count"]) == \
                store.totals().checkpoints
        except (KeyError, TypeError, ValueError):
            return False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def retire(self, run_id: str, *, collect: bool = True) -> PruneReport:
        """Release a run's checkpoint payloads but keep its catalog entry.

        The manifest rows are deleted (manifest-first), the entry is
        re-persisted with ``retired=True`` and its checkpoint fields
        zeroed — workload, logged values and timing stay queryable — and
        a GC pass (``collect=True``) then reclaims every payload blob no
        surviving run references.
        """
        entry = self.entries.get(run_id)
        if entry is None:
            from ..exceptions import QueryError
            raise QueryError(
                f"run {run_id!r} not in catalog; cataloged runs: "
                f"{', '.join(sorted(self.entries)) or '-'}")
        store = CheckpointStore.for_config(Path(entry.run_dir), self.config)
        try:
            report = retire_run(store)
            updated = replace(entry, checkpoint_count=0,
                              aligned_iterations=(), retired=True)
            store.set_metadata(CATALOG_METADATA_KEY, updated.to_dict())
        finally:
            store.close()
        if collect:
            # Grace protects concurrently recording sessions' in-flight
            # blobs; what this retirement released sweeps via hints —
            # time-scoped to the retire instant, so a concurrent writer
            # re-adding a released digest keeps its blob.
            collect_garbage(self.config.home,
                            grace_seconds=DEFAULT_GC_GRACE_SECONDS,
                            release_hints=report.released_digests,
                            hints_released_at=report.released_at)
        self.entries[run_id] = updated
        return report

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def get(self, run_id: str) -> RunEntry | None:
        return self.entries.get(run_id)

    def select(self, runs: str | Iterable[str] | None = None,
               workload: str | None = None,
               values: Iterable[str] | None = None) -> list[RunEntry]:
        """Entries matching the filters, ordered by recording time.

        ``runs`` is a run id, an iterable of run ids, or None for all runs
        (a single id may also be a prefix, so the human-chosen slug selects
        without the timestamp suffix).  ``workload`` filters on the recorded
        workload name; ``values`` keeps only runs that logged every named
        value at record time (useful to find runs a query can answer
        without replay).
        """
        if runs is None:
            selected = list(self.entries.values())
        elif isinstance(runs, str):
            selected = [entry for run_id, entry in self.entries.items()
                        if run_id == runs or run_id.startswith(runs)]
        else:
            wanted = list(runs)
            missing = [run_id for run_id in wanted
                       if run_id not in self.entries]
            if missing:
                from ..exceptions import QueryError
                raise QueryError(
                    f"run(s) not in catalog: {', '.join(missing)}; "
                    f"cataloged runs: {', '.join(sorted(self.entries)) or '-'}")
            selected = [self.entries[run_id] for run_id in wanted]
        if workload is not None:
            selected = [entry for entry in selected
                        if entry.workload == workload]
        if values is not None:
            names = set(values)
            selected = [entry for entry in selected
                        if names <= set(entry.logged_values)]
        return sorted(selected, key=lambda entry: (entry.started_at,
                                                   entry.run_id))

    def latest(self, count: int = 1,
               workload: str | None = None) -> list[RunEntry]:
        """The most recently recorded ``count`` runs, oldest first."""
        ordered = self.select(workload=workload)
        return ordered[-count:] if count > 0 else []

    # ------------------------------------------------------------------ #
    # Merged job view (distributed record)
    # ------------------------------------------------------------------ #
    def jobs(self, workload: str | None = None) -> list[JobGroup]:
        """Every logical job under the home, worker runs merged by job id.

        A distributed job's ``<job_id>@<rank>`` runs collapse into one
        :class:`JobGroup`; an ordinary run is a singleton group whose job
        id is its run id.  Ordered by the earliest member's recording
        time, workers ordered by rank within each group.
        """
        grouped: dict[str, list[RunEntry]] = {}
        for entry in self.select(workload=workload):
            grouped.setdefault(entry.job_id, []).append(entry)
        groups = [
            JobGroup(job_id=job_id, workers=tuple(
                sorted(members,
                       key=lambda e: (e.worker_rank is None,
                                      e.worker_rank or 0, e.run_id))))
            for job_id, members in grouped.items()
        ]
        return sorted(groups, key=lambda group: (
            min(entry.started_at for entry in group.workers),
            group.job_id))

    def job(self, job_id: str) -> JobGroup:
        """The merged view of one logical job (exact id or unique prefix)."""
        grouped: dict[str, list[RunEntry]] = {}
        for entry in self.entries.values():
            grouped.setdefault(entry.job_id, []).append(entry)
        members = grouped.get(job_id)
        if members is None:
            matches = [jid for jid in grouped if jid.startswith(job_id)]
            if len(matches) > 1:
                from ..exceptions import QueryError
                raise QueryError(
                    f"job id prefix {job_id!r} is ambiguous: "
                    f"{', '.join(sorted(matches))}")
            if matches:
                job_id, members = matches[0], grouped[matches[0]]
        if members is None:
            from ..exceptions import QueryError
            raise QueryError(
                f"job {job_id!r} not in catalog; cataloged jobs: "
                f"{', '.join(sorted(grouped)) or '-'}")
        return JobGroup(job_id=job_id, workers=tuple(
            sorted(members, key=lambda e: (e.worker_rank is None,
                                           e.worker_rank or 0, e.run_id))))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RunEntry]:
        return iter(self.select())

    def __repr__(self) -> str:
        return f"RunCatalog({len(self.entries)} runs @ {self.config.home})"
