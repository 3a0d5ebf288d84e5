"""The content-addressed payload object store.

Dedup moves checkpoint payloads out of per-execution files and into a
content-addressed object store shared by every run under one Flor home:
a payload is stored once per SHA-256 digest, no matter how many manifest
rows — across blocks, executions and *runs* — reference it.  Identical
checkpoints (a model that stopped improving, a re-recorded workload, a
sweep over non-model hyperparameters) therefore cost one blob.

:class:`FileObjectStore` keeps blobs at
``<home>/objects/<digest[:2]>/<digest>``, written atomically (temp file +
``os.replace``) so a crash mid-write never leaves a partial blob under a
valid digest name.  Blob files are immutable once placed; ``digest ->
size/age`` is answered straight from the filesystem, so there is no index
to keep transactionally consistent with the manifests that reference the
blobs.  Every run under the home shares the one store.

Reference counts are *derived*, not stored: each backend can report
``payload_digest -> row count`` from its manifest
(:meth:`~repro.storage.backends.StorageBackend.referenced_digests`), and
the lifecycle layer's GC unions those counts across runs before sweeping.
Deriving refcounts from the manifest makes them transactionally
consistent with it by construction — there is no second table to get out
of sync when a crash lands between a payload write and a manifest commit.

Crash-safety contract (shared with :mod:`repro.storage.lifecycle`):
blobs are written *before* the manifest rows that reference them, and
deleted only *after* no manifest row references them (payload-last,
manifest-first).  An interrupted writer can only leave an orphaned blob,
never a dangling manifest row; an interrupted GC can only leave an
orphan for the next sweep, never delete a referenced blob.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import StorageError
from ..telemetry import get_metrics

__all__ = ["OBJECTS_DIR_NAME", "ObjectStoreStats", "FileObjectStore",
           "default_objects_dir"]

#: Directory under a Flor home holding the shared content-addressed blobs.
OBJECTS_DIR_NAME = "objects"

#: Suffix of in-flight temp files (swept by GC if a crash strands them).
_TMP_SUFFIX = ".tmp"


def default_objects_dir(home: str | Path) -> Path:
    """The shared object directory for every run under ``home``."""
    return Path(home) / OBJECTS_DIR_NAME


@dataclass
class ObjectStoreStats:
    """One object store's physical footprint plus process-local counters."""

    objects: int
    total_nbytes: int
    #: ``put`` calls served by an existing blob (process-local lifetime).
    dedup_hits: int
    #: ``put`` calls that wrote a new blob (process-local lifetime).
    puts: int


#: Process-wide cache of file object stores, keyed by resolved objects dir,
#: so every opener of one home (backends, GC, stats) shares one instance —
#: and its process-local dedup counters.
_FILE_OBJECT_CACHE: dict[str, "FileObjectStore"] = {}
_FILE_OBJECT_CACHE_LOCK = threading.Lock()


class FileObjectStore:
    """Filesystem blobs, fanned out by digest prefix, written atomically."""

    def __init__(self, objects_dir: str | Path):
        self.objects_dir = Path(objects_dir)
        self._counter_lock = threading.Lock()
        self._dedup_hits = 0
        self._puts = 0

    @classmethod
    def for_dir(cls, objects_dir: str | Path) -> "FileObjectStore":
        """The process-wide store instance for ``objects_dir``."""
        key = str(Path(objects_dir).expanduser().resolve())
        with _FILE_OBJECT_CACHE_LOCK:
            store = _FILE_OBJECT_CACHE.get(key)
            if store is None:
                store = _FILE_OBJECT_CACHE[key] = cls(objects_dir)
            return store

    # -- addressing -------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        if len(digest) < 3:
            raise StorageError(f"implausible payload digest {digest!r}")
        return self.objects_dir / digest[:2] / digest

    def location(self, digest: str) -> str:
        """The location string manifest rows record for ``digest``."""
        return str(self.blob_path(digest))

    # -- write / read -----------------------------------------------------
    def put(self, digest: str, payload: bytes) -> str:
        """Store ``payload`` under ``digest`` (idempotent); return location."""
        path = self.blob_path(digest)
        if path.exists():
            # Refresh the blob's age: an old unreferenced blob that is
            # being *re*-referenced must re-enter the GC grace window, or
            # a concurrent sweep (mark taken before our manifest commit)
            # could delete it out from under the new row.
            try:
                os.utime(path)
            except FileNotFoundError:  # pragma: no cover - sweep race
                pass
            else:
                with self._counter_lock:
                    self._dedup_hits += 1
                    get_metrics().inc("storage.dedup_hits")
                return str(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name per writer, then an atomic rename: concurrent
        # writers of the same digest race benignly (same bytes), and a
        # crash mid-write strands only a ``.tmp`` file GC later sweeps.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident()}{_TMP_SUFFIX}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        with self._counter_lock:
            self._puts += 1
        return str(path)

    def get(self, digest: str) -> bytes:
        try:
            return self.blob_path(digest).read_bytes()
        except FileNotFoundError:
            raise StorageError(f"no payload object {digest!r} under "
                               f"{self.objects_dir}") from None

    def contains(self, digest: str) -> bool:
        return self.blob_path(digest).exists()

    def touch(self, digest: str) -> int | None:
        """Age-refresh an existing blob; return its stored size, else None.

        The chunked write path's dedup probe: when a chunk's digest is
        already stored, ``touch`` re-enters it into the GC grace window
        (exactly like a dedup ``put``) *without* the caller compressing
        the chunk bytes first — the whole point of writing only new
        chunks.  ``None`` means absent: compress and ``put``.
        """
        path = self.blob_path(digest)
        try:
            # Same age refresh as a dedup put: the re-referenced blob must
            # re-enter the GC grace window before the new manifest row
            # referencing it commits.
            os.utime(path)
            nbytes = path.stat().st_size
        except FileNotFoundError:
            return None
        with self._counter_lock:
            self._dedup_hits += 1
            get_metrics().inc("storage.dedup_hits")
        return nbytes

    # -- enumeration ------------------------------------------------------
    def _blob_files(self):
        if not self.objects_dir.is_dir():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.iterdir()):
                if path.is_file() and not path.name.endswith(_TMP_SUFFIX):
                    yield path

    def digests(self) -> dict[str, int]:
        """``digest -> stored nbytes`` for every blob currently held."""
        held: dict[str, int] = {}
        for path in self._blob_files():
            try:
                held[path.name] = path.stat().st_size
            except FileNotFoundError:
                # A concurrent sweep (another process closing under the
                # same home) unlinked it between listing and stat.
                continue
        return held

    def age_seconds(self, digest: str, now: float | None = None) -> float:
        """Seconds since the blob was placed (GC grace-period input)."""
        now = time.time() if now is None else now
        try:
            return max(0.0, now - self.blob_path(digest).stat().st_mtime)
        except FileNotFoundError:
            return 0.0

    # -- deletion (GC only) ----------------------------------------------
    def _delete_blob(self, path: Path) -> int:
        """Unlink one blob file; the fault-injection hook point."""
        nbytes = path.stat().st_size
        path.unlink()
        return nbytes

    def delete(self, digests: "list[str] | set[str]", *,
               not_newer_than: float | None = None) -> tuple[int, int]:
        """Remove blobs; returns ``(objects_deleted, nbytes_freed)``.

        ``not_newer_than`` skips blobs placed (or age-refreshed) after
        the given timestamp: a GC sweep passes its mark time, so a blob a
        concurrent writer re-referenced *after* the mark survives even
        though the mark saw it as unreferenced.
        """
        deleted, freed = 0, 0
        for digest in sorted(digests):
            path = self.blob_path(digest)
            try:
                if not_newer_than is not None and \
                        path.stat().st_mtime > not_newer_than:
                    # Re-referenced (age-refreshed by a dedup put) after
                    # the caller's mark phase: its new manifest row may
                    # already be committed — keep it.
                    continue
                freed += self._delete_blob(path)
                deleted += 1
            except FileNotFoundError:
                continue
        return deleted, freed

    def sweep_stranded_tmp(self, grace_seconds: float = 0.0) -> int:
        """Remove temp files stranded by a crashed writer."""
        removed = 0
        now = time.time()
        if not self.objects_dir.is_dir():
            return 0
        for bucket in self.objects_dir.iterdir():
            if not bucket.is_dir():
                continue
            for path in bucket.glob(f"*{_TMP_SUFFIX}"):
                try:
                    if now - path.stat().st_mtime >= grace_seconds:
                        path.unlink()
                        removed += 1
                except FileNotFoundError:
                    continue
        return removed

    def stats(self) -> ObjectStoreStats:
        held = self.digests()
        with self._counter_lock:
            return ObjectStoreStats(objects=len(held),
                                    total_nbytes=sum(held.values()),
                                    dedup_hits=self._dedup_hits,
                                    puts=self._puts)
