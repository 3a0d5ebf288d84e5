"""Storage lifecycle: retention policies, pruning, and garbage collection.

The record path only ever *adds* checkpoints; this module is the other
half of the ledger.  It retires manifest rows under a declarative
:class:`RetentionPolicy`, sweeps payload blobs no manifest references any
more, and reports what the home actually costs on disk — the
content-addressed analogue of how multi-petabyte survey stores keep a
bounded footprint with policy-driven retention and compaction.

Crash-consistency is ordering, not machinery:

* **manifest-first** — :func:`prune_store` deletes manifest rows in one
  backend transaction *before* any payload is touched.  A crash after the
  commit leaves orphaned payloads (swept by the next GC), never a
  manifest row pointing at a missing payload.
* **payload-last** — :func:`collect_garbage` re-derives the referenced
  digest set from every run's manifest *at sweep time* and deletes only
  blobs outside it.  An interrupted sweep leaves some orphans for the
  next pass; it can never delete a referenced blob, because referencedness
  is read from the same manifests replay reads.

GC runs inline (``repro.gc()``, ``CheckpointStore.gc()``), at session
close, or periodically on the async spool's background workers via
:class:`LifecycleManager` — the record hot path never blocks on it.

Replay stays correct after pruning by construction: the replay scheduler
derives restorable iterations from the manifest, so pruned executions
simply vanish from the aligned set and workers bridge (recompute) from
the nearest surviving checkpoint.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..exceptions import StorageError
from ..telemetry import get_tracer
from ..utils.timing import monotonic
from .backends import (SHARD_MANIFEST_NAME, StorageBackend,
                       registered_memory_backends)
from .objectstore import (FileObjectStore, MemoryObjectStore,
                          PayloadObjectStore, default_objects_dir)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkpoint_store import CheckpointStore

__all__ = ["DEFAULT_GC_GRACE_SECONDS", "RetentionPolicy", "PruneReport",
           "GCReport", "StorageStats", "plan_retention", "prune_store",
           "retire_run", "collect_garbage", "measure_storage",
           "LifecycleManager"]


# --------------------------------------------------------------------------- #
# Policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetentionPolicy:
    """Declarative description of which checkpoints a run must keep.

    Every rule is a *keep filter*; a checkpoint is pruned when any active
    rule rejects it.  Two guardrails apply regardless of the rules:
    checkpoints younger than ``min_age_seconds`` are never pruned, and the
    newest (highest-index) checkpoint of every block always survives — it
    is the bridge anchor partial replay resumes from.

    Parameters
    ----------
    keep_last_n:
        Keep only the ``n`` highest execution indices per block.
    keep_aligned_only:
        Keep only checkpoints at *aligned* iterations (restorable across
        every main-loop block — the replay scheduler's restore points);
        repeats-within-iteration and stragglers are pruned.
    max_total_bytes:
        Cap the run's logical stored bytes; oldest checkpoints are pruned
        first until the cap holds.
    min_age_seconds:
        Grace period: checkpoints younger than this are exempt from every
        rule (protects in-flight work from a concurrently running GC).
    """

    keep_last_n: int | None = None
    keep_aligned_only: bool = False
    max_total_bytes: int | None = None
    min_age_seconds: float = 0.0

    def validate(self) -> "RetentionPolicy":
        if self.keep_last_n is not None and (
                not isinstance(self.keep_last_n, int)
                or isinstance(self.keep_last_n, bool)
                or self.keep_last_n < 1):
            raise StorageError(
                f"keep_last_n must be an integer >= 1 or None, "
                f"got {self.keep_last_n!r}")
        if self.max_total_bytes is not None and (
                not isinstance(self.max_total_bytes, int)
                or isinstance(self.max_total_bytes, bool)
                or self.max_total_bytes < 0):
            raise StorageError(
                f"max_total_bytes must be an integer >= 0 or None, "
                f"got {self.max_total_bytes!r}")
        if self.min_age_seconds < 0:
            raise StorageError(
                f"min_age_seconds must be >= 0, got {self.min_age_seconds!r}")
        return self

    def is_active(self) -> bool:
        """Whether any rule can prune anything."""
        return (self.keep_last_n is not None or self.keep_aligned_only
                or self.max_total_bytes is not None)

    def to_dict(self) -> dict:
        return {"keep_last_n": self.keep_last_n,
                "keep_aligned_only": self.keep_aligned_only,
                "max_total_bytes": self.max_total_bytes,
                "min_age_seconds": self.min_age_seconds}

    @classmethod
    def from_dict(cls, payload: dict) -> "RetentionPolicy":
        return cls(
            keep_last_n=payload.get("keep_last_n"),
            keep_aligned_only=bool(payload.get("keep_aligned_only", False)),
            max_total_bytes=payload.get("max_total_bytes"),
            min_age_seconds=float(payload.get("min_age_seconds", 0.0)),
        ).validate()


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
@dataclass
class PruneReport:
    """Outcome of one retention pass over one run's manifest."""

    examined: int = 0
    pruned: int = 0
    kept: int = 0
    logical_nbytes_freed: int = 0
    legacy_payload_nbytes_freed: int = 0
    pruned_keys: list[tuple[str, int]] = field(default_factory=list)
    #: Content digests the pruned rows referenced — release *hints* for
    #: the follow-up GC pass (sweepable immediately, no grace needed,
    #: because this pruner just observed them go unreferenced-by-it).
    released_digests: list[str] = field(default_factory=list)
    #: Timestamp taken just before the manifest rows were deleted.  The
    #: follow-up GC passes it as ``hints_released_at``: a blob placed (or
    #: dedup-refreshed) *after* this instant was re-added by a concurrent
    #: writer the prune knew nothing about, so the hint must not bypass
    #: the grace for it.
    released_at: float | None = None

    def to_dict(self) -> dict:
        return {"examined": self.examined, "pruned": self.pruned,
                "kept": self.kept,
                "logical_nbytes_freed": self.logical_nbytes_freed,
                "legacy_payload_nbytes_freed":
                    self.legacy_payload_nbytes_freed}


@dataclass
class GCReport:
    """Outcome of one mark-and-sweep pass over a home's object stores."""

    home: str = ""
    scanned_runs: int = 0
    referenced_digests: int = 0
    swept_objects: int = 0
    swept_nbytes: int = 0
    kept_objects: int = 0
    kept_nbytes: int = 0
    deferred_objects: int = 0  # unreferenced but younger than the grace
    stranded_tmp_removed: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        return {"home": self.home, "scanned_runs": self.scanned_runs,
                "referenced_digests": self.referenced_digests,
                "swept_objects": self.swept_objects,
                "swept_nbytes": self.swept_nbytes,
                "kept_objects": self.kept_objects,
                "kept_nbytes": self.kept_nbytes,
                "deferred_objects": self.deferred_objects,
                "stranded_tmp_removed": self.stranded_tmp_removed,
                "dry_run": self.dry_run}


@dataclass
class StorageStats:
    """What a Flor home costs: logical checkpoint bytes vs physical blobs."""

    home: str = ""
    runs: int = 0
    checkpoints: int = 0
    #: Sum of manifest ``stored_nbytes`` — what storage would cost without
    #: dedup (every reference paying full price).
    logical_nbytes: int = 0
    #: Bytes of legacy per-execution payload files (referenced by rows
    #: with no ``payload_digest``); not deduplicated.
    legacy_nbytes: int = 0
    physical_objects: int = 0
    physical_nbytes: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes per physical blob byte (1.0 = no sharing)."""
        deduped_logical = self.logical_nbytes - self.legacy_nbytes
        if self.physical_nbytes <= 0:
            return 1.0
        return deduped_logical / self.physical_nbytes

    def to_dict(self) -> dict:
        return {"home": self.home, "runs": self.runs,
                "checkpoints": self.checkpoints,
                "logical_nbytes": self.logical_nbytes,
                "legacy_nbytes": self.legacy_nbytes,
                "physical_objects": self.physical_objects,
                "physical_nbytes": self.physical_nbytes,
                "dedup_ratio": round(self.dedup_ratio, 4)}


# --------------------------------------------------------------------------- #
# Retention planning and pruning (manifest-first)
# --------------------------------------------------------------------------- #
def _aligned_iterations(store: "CheckpointStore") -> set[int]:
    """The run's aligned (restorable-across-all-blocks) iterations."""
    # Function-level import: the scheduler lives above the storage layer.
    from ..replay.scheduler import aligned_checkpoints

    total = store.get_metadata("main_loop_total")
    if total is None:
        recorded = store.get_metadata("iterations_run") or []
        total = (max(recorded) + 1) if recorded else 0
    loop_blocks = store.get_metadata("loop_blocks")
    return set(aligned_checkpoints(store, int(total),
                                   loop_blocks=loop_blocks))


def plan_retention(store: "CheckpointStore", policy: RetentionPolicy,
                   *, now: float | None = None) -> list:
    """The manifest rows ``policy`` would prune, in deletion order.

    Pure planning — nothing is deleted.  See :class:`RetentionPolicy` for
    the rule semantics and the two unconditional guardrails.
    """
    policy.validate()
    if not policy.is_active():
        return []
    now = time.time() if now is None else now
    records = store.records()
    if not records:
        return []

    by_block: dict[str, list] = {}
    for record in records:
        by_block.setdefault(record.block_id, []).append(record)

    protected: set[tuple[str, int]] = set()
    for block_id, rows in by_block.items():
        # The bridge anchor: partial replay resumes from the newest
        # surviving checkpoint, so the newest always survives.
        anchor = max(rows, key=lambda r: r.execution_index)
        protected.add((block_id, anchor.execution_index))
    for record in records:
        if now - record.created_at < policy.min_age_seconds:
            protected.add((record.block_id, record.execution_index))

    aligned = (_aligned_iterations(store)
               if policy.keep_aligned_only else None)

    pruned: dict[tuple[str, int], object] = {}
    for block_id, rows in by_block.items():
        rows = sorted(rows, key=lambda r: r.execution_index)
        keep_tail = (set(r.execution_index for r in
                         rows[-policy.keep_last_n:])
                     if policy.keep_last_n is not None else None)
        for record in rows:
            key = (block_id, record.execution_index)
            if key in protected:
                continue
            if keep_tail is not None and \
                    record.execution_index not in keep_tail:
                pruned[key] = record
            elif aligned is not None and \
                    record.execution_index not in aligned:
                pruned[key] = record

    if policy.max_total_bytes is not None:
        surviving = [record for record in records
                     if (record.block_id, record.execution_index)
                     not in pruned]
        total = sum(record.stored_nbytes for record in surviving)
        # Oldest first; protected rows (anchors, young rows) never drop.
        for record in sorted(surviving,
                             key=lambda r: (r.created_at, r.block_id,
                                            r.execution_index)):
            if total <= policy.max_total_bytes:
                break
            key = (record.block_id, record.execution_index)
            if key in protected:
                continue
            pruned[key] = record
            total -= record.stored_nbytes

    return [pruned[key] for key in sorted(pruned)]


def _delete_records(store: "CheckpointStore", records: Iterable,
                    report: PruneReport) -> PruneReport:
    """Manifest-first deletion of ``records``, then legacy payload files."""
    records = list(records)
    keys = [(record.block_id, record.execution_index) for record in records]
    deleted = store.backend.delete_many(keys)  # one transaction per backend
    report.pruned = len(deleted)
    report.pruned_keys = [(r.block_id, r.execution_index) for r in deleted]
    report.logical_nbytes_freed = sum(r.stored_nbytes for r in deleted)
    released: set[str] = set()
    for record in deleted:
        if record.payload_digest:
            released.add(record.payload_digest)
        # Chunked rows release every chunk in their recipe; a chunk still
        # referenced by another row's recipe survives the sweep anyway
        # (referencedness wins over hints).
        released.update(record.recipe_digests())
    report.released_digests = sorted(released)
    # Payload-last: legacy per-execution files have exactly one referencing
    # row (just deleted), so they can go now; shared blobs wait for GC.
    for record in deleted:
        if record.is_legacy_payload():
            report.legacy_payload_nbytes_freed += \
                store.backend.discard_payload(str(record.path))
    return report


def prune_store(store: "CheckpointStore", policy: RetentionPolicy,
                *, now: float | None = None) -> PruneReport:
    """Apply ``policy`` to one run: delete rejected manifest rows.

    Rows vanish in one backend transaction *before* any payload does
    (manifest-first); content-addressed blobs are left to the next
    :func:`collect_garbage` pass, which alone may decide a blob is
    unreferenced across the whole home.
    """
    with get_tracer().span("lifecycle.prune") as span:
        report = PruneReport(examined=store.totals().checkpoints)
        plan = plan_retention(store, policy, now=now)
        if plan:
            report.released_at = time.time()
            _delete_records(store, plan, report)
        report.kept = report.examined - report.pruned
        span.set(examined=report.examined, pruned=report.pruned)
    return report


def retire_run(store: "CheckpointStore") -> PruneReport:
    """Drop *every* checkpoint of a run (catalog metadata stays).

    The whole-run analogue of :func:`prune_store` — no policy, no
    anchors: the run's payload bytes are released (pending GC for shared
    blobs) while its manifest metadata, logs and catalog entry remain
    queryable.
    """
    report = PruneReport(examined=store.totals().checkpoints)
    report.released_at = time.time()
    _delete_records(store, store.records(), report)
    report.kept = report.examined - report.pruned
    return report


# --------------------------------------------------------------------------- #
# Garbage collection (payload-last)
# --------------------------------------------------------------------------- #
#: Stranded ``.tmp`` files younger than this are never swept — they may be
#: another live writer's in-flight payload (its ``os.replace`` would fail).
_TMP_SWEEP_FLOOR_SECONDS = 300.0

#: Grace every *automatic* sweep uses (background passes, close-time
#: passes, the collect that follows ``repro.prune`` / catalog retire).
#: The object store is shared per home: a concurrently recording session
#: writes blobs before committing their manifest rows, and only the grace
#: stands between that window and a dangling row.  Explicit user calls
#: (``repro.gc()``) may choose 0.
DEFAULT_GC_GRACE_SECONDS = 60.0


def _looks_like_manifest_dir(path: Path) -> bool:
    """Whether ``path`` holds a checkpoint manifest GC must mark from."""
    return ((path / "manifest.sqlite").exists()
            or (path / SHARD_MANIFEST_NAME).exists())


def _home_backends(home: Path) -> list[tuple[StorageBackend, bool]]:
    """Every backend holding manifest rows for runs under ``home``.

    Returns ``(backend, opened_here)`` pairs; the caller closes the ones
    opened here (registered in-memory backends are shared and stay open).
    """
    # Function-level import: checkpoint_store imports this module lazily
    # and vice versa.
    from .checkpoint_store import CheckpointStore

    backends: list[tuple[StorageBackend, bool]] = []
    seen: set[int] = set()
    if home.is_dir():
        for run_dir in sorted(home.iterdir()):
            if run_dir.is_dir() and _looks_like_manifest_dir(run_dir):
                backend = CheckpointStore(run_dir).backend
                if id(backend) not in seen:
                    seen.add(id(backend))
                    backends.append((backend, True))
    for backend in registered_memory_backends(home):
        if id(backend) not in seen:
            seen.add(id(backend))
            backends.append((backend, False))
    return backends


def _home_object_stores(home: Path) -> list[PayloadObjectStore]:
    stores: list[PayloadObjectStore] = []
    objects_dir = default_objects_dir(home)
    if objects_dir.is_dir():
        stores.append(FileObjectStore.for_dir(objects_dir))
    registered = MemoryObjectStore.registered_for(home)
    if registered is not None:
        stores.append(registered)
    return stores


def referenced_digest_counts(home: str | Path) -> "Counter[str]":
    """Union of every run's derived payload refcounts under ``home``."""
    counts: "Counter[str]" = Counter()
    for backend, opened_here in _home_backends(Path(home)):
        counts.update(backend.referenced_digests())
        if opened_here:
            backend.close()
    return counts


def collect_garbage(home: str | Path, *, grace_seconds: float = 0.0,
                    dry_run: bool = False,
                    extra_referenced: Iterable[str] = (),
                    release_hints: Iterable[str] = (),
                    hints_released_at: float | None = None) -> GCReport:
    """Mark-and-sweep the home's object stores (the payload-last half).

    Mark re-derives the referenced digest set from every manifest under
    ``home`` *now* — not from counters that could have drifted — then
    sweeps blobs outside the set.  ``grace_seconds`` defers
    recently-placed blobs: a concurrent recorder writes its payload
    before committing the manifest row, and the grace keeps that window
    from being swept out from under it.  ``extra_referenced`` lets a
    caller pin digests it knows are in flight (the spool's buffered
    records); ``release_hints`` does the opposite — digests the caller
    just pruned are swept without waiting out the grace (referencedness
    still wins: a hinted digest another run references is kept).
    ``dry_run`` reports without deleting.

    ``hints_released_at`` scopes the hints in *time* (pass the prune's
    :attr:`PruneReport.released_at`): a hinted blob placed — or
    dedup-refreshed — after that instant was re-added by a concurrent
    *writer* the pruner knew nothing about, so it falls back to the
    ordinary grace path instead of being swept out from under the
    writer's not-yet-committed manifest row.  Without a timestamp the
    hints are bounded by this pass's mark time, which protects re-adds
    during the sweep but not ones landing between the prune and the
    mark.
    """
    home = Path(home)
    with get_tracer().span("lifecycle.gc", dry_run=dry_run) as gc_span:
        report = _collect_garbage(
            home, grace_seconds=grace_seconds, dry_run=dry_run,
            extra_referenced=extra_referenced, release_hints=release_hints,
            hints_released_at=hints_released_at)
        gc_span.set(swept=report.swept_objects, kept=report.kept_objects)
    return report


def _collect_garbage(home: Path, *, grace_seconds: float, dry_run: bool,
                     extra_referenced: Iterable[str],
                     release_hints: Iterable[str],
                     hints_released_at: float | None) -> GCReport:
    report = GCReport(home=str(home), dry_run=dry_run)
    # The mark timestamp is taken BEFORE the mark phase: anything placed
    # or re-referenced while we scan manifests shows up as newer-than-mark
    # and survives the sweep's unlink-time age re-check.
    now = time.time()
    backends = _home_backends(home)
    report.scanned_runs = len(backends)
    referenced: "Counter[str]" = Counter()
    for backend, opened_here in backends:
        referenced.update(backend.referenced_digests())
        if opened_here:
            backend.close()
    for digest in extra_referenced:
        referenced[digest] += 1
    report.referenced_digests = len(referenced)

    released = set(release_hints)
    # Blobs touched after the hint cutoff are not covered by the hints.
    hint_cutoff = now if hints_released_at is None \
        else min(hints_released_at, now)
    for objects in _home_object_stores(home):
        held = objects.digests()
        sweepable: list[str] = []
        hinted_sweepable: list[str] = []
        for digest, nbytes in held.items():
            hinted = (digest in released
                      and objects.age_seconds(digest, now)
                      >= now - hint_cutoff)
            if digest in referenced:
                report.kept_objects += 1
                report.kept_nbytes += nbytes
            elif not hinted and \
                    objects.age_seconds(digest, now) < grace_seconds:
                report.deferred_objects += 1
                report.kept_objects += 1
                report.kept_nbytes += nbytes
            elif hinted:
                hinted_sweepable.append(digest)
            else:
                sweepable.append(digest)
        if dry_run:
            planned = sweepable + hinted_sweepable
            report.swept_objects += len(planned)
            report.swept_nbytes += sum(held[digest] for digest in planned)
        else:
            # ``not_newer_than`` re-checks age at unlink time: a blob a
            # concurrent writer re-referenced after this pass's mark
            # phase (dedup put -> age refresh -> manifest commit) must
            # survive even though the mark saw it as unreferenced.
            # Hinted blobs re-check against the *hint cutoff*: a dedup
            # re-put landing between the prune and this unlink makes the
            # hint stale for that blob, and the refreshed mtime vetoes
            # the deletion.
            deleted, freed = objects.delete(sweepable, not_newer_than=now)
            report.swept_objects += deleted
            report.swept_nbytes += freed
            deleted, freed = objects.delete(hinted_sweepable,
                                            not_newer_than=hint_cutoff)
            report.swept_objects += deleted
            report.swept_nbytes += freed
            if isinstance(objects, FileObjectStore):
                # Temp files are another writer's in-flight state: sweep
                # only ones old enough that their writer is surely dead,
                # regardless of how aggressive this pass's blob grace is.
                report.stranded_tmp_removed += objects.sweep_stranded_tmp(
                    max(grace_seconds, _TMP_SWEEP_FLOOR_SECONDS))
    return report


def measure_storage(home: str | Path) -> StorageStats:
    """Aggregate the home's manifest-plane and payload-plane footprint."""
    home = Path(home)
    stats = StorageStats(home=str(home))
    for backend, opened_here in _home_backends(home):
        stats.runs += 1
        for record in backend.records():
            stats.checkpoints += 1
            stats.logical_nbytes += record.stored_nbytes
            if record.is_legacy_payload():
                stats.legacy_nbytes += record.stored_nbytes
        if opened_here:
            backend.close()
    for objects in _home_object_stores(home):
        object_stats = objects.stats()
        stats.physical_objects += object_stats.objects
        stats.physical_nbytes += object_stats.total_nbytes
    return stats


# --------------------------------------------------------------------------- #
# Background scheduling
# --------------------------------------------------------------------------- #
class LifecycleManager:
    """Runs retention + GC for one store, inline or on the spool's workers.

    The async spool invokes :meth:`on_manifest_commit` after each batched
    manifest commit (already on a background worker, so the training hot
    path never pays for it); when ``gc_interval`` seconds have passed
    since the last pass, one prune + sweep runs.  Passes are serialized
    and non-reentrant — a worker that finds a pass in flight skips.

    Every pass sweeps with a grace period (default 60 s): the home's
    object store is shared, so a blob another session wrote but has not
    yet manifest-committed must never be collected — not even by the
    close-time pass, which only knows *this* session's spool is quiet.
    What this session's own prunes release is reclaimed immediately
    anyway: pruned digests accumulate as release hints, which sweep
    without waiting out the grace (unless another run still references
    them).
    """

    def __init__(self, store: "CheckpointStore", *,
                 policy: RetentionPolicy | None = None,
                 gc_interval: float | None = None,
                 grace_seconds: float = DEFAULT_GC_GRACE_SECONDS):
        if policy is not None:
            policy.validate()
        self.store = store
        self.policy = policy
        self.gc_interval = gc_interval
        self.grace_seconds = grace_seconds
        self.home = Path(store.run_dir).parent
        self.passes = 0
        self.last_prune: PruneReport | None = None
        self.last_gc: GCReport | None = None
        self._running = threading.Lock()
        self._last_pass = monotonic() if gc_interval is not None else 0.0

    def on_manifest_commit(self) -> None:
        """Spool hook: maybe run a background pass after a batch commit."""
        if self.gc_interval is None:
            return
        if monotonic() - self._last_pass < self.gc_interval:
            return
        self.run_once(grace_seconds=self.grace_seconds)

    def run_once(self, *, grace_seconds: float | None = None
                 ) -> tuple[PruneReport | None, GCReport | None]:
        """One serialized prune + GC pass; skipped if one is in flight."""
        if not self._running.acquire(blocking=False):
            return None, None
        try:
            self._last_pass = monotonic()
            # Hints are one-shot: only what THIS pass's prune released may
            # bypass the grace.  A digest released in an earlier pass can
            # be legitimately *re*-referenced later (identical payload
            # re-recorded); a stale hint would let the sweep delete it in
            # exactly the payload-written / row-not-yet-committed window
            # the grace exists to protect.
            released: list[str] = []
            released_at: float | None = None
            if self.policy is not None and self.policy.is_active():
                self.last_prune = prune_store(self.store, self.policy)
                released = self.last_prune.released_digests
                released_at = self.last_prune.released_at
            grace = self.grace_seconds if grace_seconds is None \
                else grace_seconds
            self.last_gc = collect_garbage(self.home, grace_seconds=grace,
                                           release_hints=released,
                                           hints_released_at=released_at)
            self.passes += 1
            return self.last_prune, self.last_gc
        finally:
            self._running.release()

    def summary(self) -> dict:
        """Run-metadata payload describing what lifecycle did this run."""
        return {
            "policy": self.policy.to_dict() if self.policy else None,
            "gc_interval": self.gc_interval,
            "passes": self.passes,
            "last_prune": self.last_prune.to_dict()
                if self.last_prune else None,
            "last_gc": self.last_gc.to_dict() if self.last_gc else None,
        }
