"""Checkpoint storage backends: one manifest class under three layouts.

A backend owns the two planes of the checkpoint store: the **manifest
plane** — the index of checkpoints by ``(block_id, execution_index)``
with sizes, timings and digests, plus a small run-metadata table, kept in
:class:`Manifest` (one SQLite database per partition) — and the **payload
plane** of opaque blobs addressed by *location* strings.
:class:`~repro.storage.checkpoint_store.CheckpointStore` routes every read
and write through :class:`StorageBackend`, so the rest of the system never
touches SQLite or the filesystem directly.  The layouts differ only in
where their manifests live and how many there are:

``local``
    One ``manifest.sqlite`` plus a ``checkpoints/`` tree for legacy
    per-execution payloads.
``memory``
    One manifest on a SQLite ``:memory:`` database, payloads in process
    memory — for tests and benchmarks.  Backends are registered per run
    directory, so reopening a store in-process attaches to the same data.
``sharded``
    ``num_shards`` local-style subtrees ``shards/shard-<k>/``, checkpoints
    routed by ``sha256(block_id)[:8] % num_shards`` so concurrent writers
    contend on different SQLite files; run metadata lives in shard 0.  The
    count is persisted in ``shards.json`` and wins on reopen.

The durability contract every layout honours: a payload is written
*before* its manifest row is committed, so the manifest never references a
missing payload.  With dedup (the default) payloads go to the object store
shared by every run under the home (:mod:`repro.storage.objectstore`),
with reference counts *derived* from the manifest rows.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from ..exceptions import StorageError
from ..utils.hashing import digest_bytes, stable_hash
from ..utils.timing import monotonic
from .objectstore import (FileObjectStore, MemoryObjectStore,
                          PayloadObjectStore, default_objects_dir)

__all__ = [
    "BACKEND_NAMES", "DEFAULT_NUM_SHARDS", "CheckpointRecord",
    "Manifest", "ManifestTotals", "StorageBackend", "resolve_backend",
    "registered_memory_backends", "discard_memory_dir",
]

#: Backend names accepted by the configuration layer.
BACKEND_NAMES = ("local", "memory", "sharded")

#: Shard count used when a sharded backend is requested without one.
DEFAULT_NUM_SHARDS = 4

#: Filename of the sharded backend's root manifest (also the sniffing key
#: that lets a reopening store detect a sharded layout).
SHARD_MANIFEST_NAME = "shards.json"

#: How long a manifest connection waits out another connection's lock.
_BUSY_TIMEOUT_S = 30.0


@dataclass
class CheckpointRecord:
    """One row of the checkpoint manifest."""

    block_id: str
    execution_index: int
    path: Path
    raw_nbytes: int
    stored_nbytes: int
    digest: str
    serialize_seconds: float
    write_seconds: float
    created_at: float
    #: Content address of the stored payload when it lives whole in the
    #: shared object store; empty for legacy per-execution payload files
    #: (pre-dedup runs and ``dedup=False`` stores), which GC leaves
    #: untouched, and for chunked rows (whose blobs the recipe names).
    payload_digest: str = ""
    #: Delta checkpoints: comma-joined ordered chunk digests when the
    #: payload is stored as content-addressed chunks.  Empty for whole
    #: payloads.  GC refcounting traces these alongside ``payload_digest``.
    recipe: str = ""

    def recipe_digests(self) -> list[str]:
        """Ordered chunk digests of a chunked row ([] for whole payloads)."""
        return self.recipe.split(",") if self.recipe else []

    def is_chunked(self) -> bool:
        return bool(self.recipe)

    def is_legacy_payload(self) -> bool:
        """Whether the row points at a per-execution file outside GC's remit."""
        return not self.payload_digest and not self.recipe


class ManifestTotals(NamedTuple):
    """Row count and byte sums of a manifest, answered by one scan."""

    checkpoints: int
    stored_nbytes: int
    raw_nbytes: int


_SCHEMA = """
CREATE TABLE IF NOT EXISTS checkpoints (
    block_id         TEXT NOT NULL,
    execution_index  INTEGER NOT NULL,
    path             TEXT NOT NULL,
    raw_nbytes       INTEGER NOT NULL,
    stored_nbytes    INTEGER NOT NULL,
    digest           TEXT NOT NULL,
    serialize_seconds REAL NOT NULL,
    write_seconds    REAL NOT NULL,
    created_at       REAL NOT NULL,
    payload_digest   TEXT NOT NULL DEFAULT '',
    recipe           TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (block_id, execution_index)
);
CREATE TABLE IF NOT EXISTS run_metadata (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_checkpoints_block ON checkpoints (block_id);
"""

_UPSERT = (
    "INSERT INTO checkpoints (block_id, execution_index, path, raw_nbytes, "
    "stored_nbytes, digest, serialize_seconds, write_seconds, created_at, "
    "payload_digest, recipe) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
    "ON CONFLICT(block_id, execution_index) DO UPDATE SET "
    "path=excluded.path, raw_nbytes=excluded.raw_nbytes, "
    "stored_nbytes=excluded.stored_nbytes, digest=excluded.digest, "
    "serialize_seconds=excluded.serialize_seconds, "
    "write_seconds=excluded.write_seconds, created_at=excluded.created_at, "
    "payload_digest=excluded.payload_digest, recipe=excluded.recipe")

_RECORD_COLUMNS = ("block_id, execution_index, path, raw_nbytes, "
                   "stored_nbytes, digest, serialize_seconds, write_seconds, "
                   "created_at, payload_digest, recipe")


def _row_to_record(row) -> CheckpointRecord:
    return CheckpointRecord(
        block_id=row[0], execution_index=row[1], path=Path(row[2]),
        raw_nbytes=row[3], stored_nbytes=row[4], digest=row[5],
        serialize_seconds=row[6], write_seconds=row[7], created_at=row[8],
        payload_digest=row[9], recipe=row[10])


def sanitize_block_id(block_id: str) -> str:
    """Make a block id safe to use as a directory name."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "_"
                   for ch in block_id)


class Manifest:
    """One SQLite checkpoint manifest: checkpoint rows plus run metadata.

    One connection is opened per process and reused for every operation.
    On disk it runs in WAL mode so readers never block the writer; a
    thread lock serializes access from the training thread and background
    spool workers, and the connection is transparently reopened in
    children after ``fork`` (parallel replay and forked recorders can
    fork with a live store).  ``path=None`` keeps the database in memory:
    that connection *is* the data, so it is never reopened (a forked child
    keeps writing into its own copy) and :meth:`close` only commits.
    """

    def __init__(self, path: Path | None):
        self.path = path
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        with self._lock:
            conn = self._connection()
            conn.executescript(_SCHEMA)
            self._migrate(conn)
            conn.commit()

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring an older manifest up to the current schema in place."""
        columns = {row[1] for row in
                   conn.execute("PRAGMA table_info(checkpoints)")}
        if "payload_digest" not in columns:  # pre-dedup manifests
            conn.execute("ALTER TABLE checkpoints ADD COLUMN "
                         "payload_digest TEXT NOT NULL DEFAULT ''")
        if "recipe" not in columns:  # pre-delta-checkpoint manifests
            conn.execute("ALTER TABLE checkpoints ADD COLUMN "
                         "recipe TEXT NOT NULL DEFAULT ''")

    def _connection(self) -> sqlite3.Connection:
        """The process-wide connection, (re)opened lazily and after fork."""
        pid = os.getpid()
        if self._conn is None or (self._conn_pid != pid
                                  and self.path is not None):
            # After fork the inherited connection object must not be used
            # (or even closed) in the child; just drop the reference.
            conn = sqlite3.connect(self.path or ":memory:",
                                   timeout=_BUSY_TIMEOUT_S,
                                   check_same_thread=False)
            # Shared homes see cross-process contention: a GC pass opens
            # other runs' manifests to mark references while their owners
            # create them or commit batches.  busy_timeout makes SQLite
            # retry-wait at the C level instead of surfacing "database is
            # locked" (the connect-level timeout only covers acquiring the
            # initial lock, not later lock upgrades).
            conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
            if self.path is not None:
                self._enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    @staticmethod
    def _enable_wal(conn: sqlite3.Connection) -> None:
        """Put an on-disk manifest in WAL mode, riding out a busy creator.

        A manifest already in WAL (every reopen) skips the switch.  The
        switch takes a lock SQLite does not always wait for through
        ``busy_timeout`` — a GC pass opening a manifest its writer is
        creating got "database is locked" — so a busy switch is retried
        within the same budget.
        """
        deadline = monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                    conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or monotonic() >= deadline:
                    raise
            time.sleep(0.01)

    def _query(self, sql: str, params: tuple = ()):
        with self._lock:
            return self._connection().execute(sql, params).fetchall()

    # -- checkpoint rows --------------------------------------------------
    def index_many(self, records: Sequence[CheckpointRecord]) -> None:
        """Commit a batch of rows (upserts) in one transaction."""
        if not records:
            return
        rows = [(r.block_id, r.execution_index, str(r.path), r.raw_nbytes,
                 r.stored_nbytes, r.digest, r.serialize_seconds,
                 r.write_seconds, r.created_at, r.payload_digest, r.recipe)
                for r in records]
        with self._lock:
            conn = self._connection()
            with conn:  # one transaction for the whole batch
                conn.executemany(_UPSERT, rows)

    # Keys per chunked row-value query (SQLite's default parameter limit
    # is 999; two parameters per key).
    _DELETE_CHUNK = 450

    def delete_many(self, keys: Sequence[tuple[str, int]]
                    ) -> list[CheckpointRecord]:
        """Delete rows by key in one transaction; returns the rows deleted."""
        if not keys:
            return []
        keys = [tuple(key) for key in keys]
        deleted: list[CheckpointRecord] = []
        with self._lock:
            conn = self._connection()
            with conn:  # one transaction: rows vanish together or not at all
                for start in range(0, len(keys), self._DELETE_CHUNK):
                    chunk = keys[start:start + self._DELETE_CHUNK]
                    placeholders = ", ".join(["(?, ?)"] * len(chunk))
                    flat = [value for key in chunk for value in key]
                    rows = conn.execute(
                        f"SELECT {_RECORD_COLUMNS} FROM checkpoints WHERE "
                        f"(block_id, execution_index) IN "
                        f"(VALUES {placeholders})", flat).fetchall()
                    deleted.extend(_row_to_record(row) for row in rows)
                conn.executemany(
                    "DELETE FROM checkpoints WHERE block_id = ? "
                    "AND execution_index = ?", keys)
        return deleted

    def referenced_digests(self) -> Counter:
        # Whole-payload references group in SQL; chunk references come as
        # recipe strings split here (SQLite has no string-split), which is
        # fine — rows with a recipe are a minority and the digests are
        # bounded by payload size / chunk size.
        counts: Counter = Counter()
        for digest, count in self._query(
                "SELECT payload_digest, COUNT(*) FROM checkpoints "
                "WHERE payload_digest != '' GROUP BY payload_digest"):
            counts[digest] += int(count)
        for (recipe,) in self._query(
                "SELECT recipe FROM checkpoints WHERE recipe != ''"):
            counts.update(recipe.split(","))
        return counts

    def lookup(self, block_id: str, execution_index: int
               ) -> CheckpointRecord | None:
        rows = self._query(
            f"SELECT {_RECORD_COLUMNS} FROM checkpoints WHERE block_id = ? "
            "AND execution_index = ?", (block_id, execution_index))
        return _row_to_record(rows[0]) if rows else None

    def executions(self, block_id: str) -> list[int]:
        rows = self._query(
            "SELECT execution_index FROM checkpoints WHERE block_id = ? "
            "ORDER BY execution_index", (block_id,))
        return [row[0] for row in rows]

    def latest_execution_at_or_before(self, block_id: str,
                                      execution_index: int) -> int | None:
        rows = self._query(
            "SELECT MAX(execution_index) FROM checkpoints WHERE block_id = ? "
            "AND execution_index <= ?", (block_id, execution_index))
        return rows[0][0] if rows and rows[0][0] is not None else None

    def blocks(self) -> list[str]:
        rows = self._query(
            "SELECT DISTINCT block_id FROM checkpoints ORDER BY block_id")
        return [row[0] for row in rows]

    def records(self) -> list[CheckpointRecord]:
        rows = self._query(
            f"SELECT {_RECORD_COLUMNS} FROM checkpoints "
            "ORDER BY block_id, execution_index")
        return [_row_to_record(row) for row in rows]

    def totals(self) -> ManifestTotals:
        count, stored, raw = self._query(
            "SELECT COUNT(*), COALESCE(SUM(stored_nbytes), 0), "
            "COALESCE(SUM(raw_nbytes), 0) FROM checkpoints")[0]
        return ManifestTotals(int(count), int(stored), int(raw))

    # -- run metadata (values are already-encoded JSON strings) -----------
    def set_metadata_json(self, key: str, value_json: str) -> None:
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT INTO run_metadata (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    (key, value_json))

    def get_metadata_json(self, key: str) -> str | None:
        rows = self._query(
            "SELECT value FROM run_metadata WHERE key = ?", (key,))
        return rows[0][0] if rows else None

    def update_metadata_json(self, key: str,
                             update: Callable[[str | None], str]) -> str:
        """Atomic read-modify-write of one metadata value.

        ``update`` receives the currently stored JSON string (or None) and
        returns the JSON string to store; the read and the write happen
        under one writer transaction, so two concurrent updaters — e.g.
        two query processes writing memoized replay values back to the
        same run — serialize instead of losing each other's merge.  The
        stored result is returned.  ``update`` must be pure.
        """
        # BEGIN IMMEDIATE takes the write lock *before* the read, so the
        # read-modify-write is one serialized transaction even across
        # processes sharing this manifest (a deferred transaction would
        # read a stale snapshot and fail its lock upgrade under WAL).
        # busy_timeout makes competing updaters wait, not error.
        with self._lock:
            conn = self._connection()
            if conn.in_transaction:
                conn.commit()
            conn.execute("BEGIN IMMEDIATE")
            try:
                rows = conn.execute(
                    "SELECT value FROM run_metadata WHERE key = ?",
                    (key,)).fetchall()
                value_json = update(rows[0][0] if rows else None)
                conn.execute(
                    "INSERT INTO run_metadata (key, value) VALUES (?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    (key, value_json))
            except BaseException:
                conn.rollback()
                raise
            conn.commit()
            return value_json

    def all_metadata_json(self) -> dict[str, str]:
        rows = self._query("SELECT key, value FROM run_metadata")
        return {key: value for key, value in rows}

    def metadata_keys(self, prefix: str = "") -> list[str]:
        """Sorted metadata keys starting with ``prefix`` (an index scan).

        The hindsight query engine namespaces its write-back entries under
        prefixed keys (``memo:<digest>``); listing by prefix lets it
        enumerate memoized value sets without decoding every value.
        """
        # LIKE with an escaped prefix would need ESCAPE gymnastics for keys
        # containing % or _; a range scan on the primary key is simpler and
        # just as index-friendly.
        rows = self._query(
            "SELECT key FROM run_metadata WHERE key >= ? ORDER BY key",
            (prefix,))
        return [row[0] for row in rows if row[0].startswith(prefix)]

    # -- lifecycle --------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.commit()

    def close(self) -> None:
        """Release the connection (reopened lazily if used again)."""
        with self._lock:
            if self.path is None:  # the in-memory connection is the data
                self.flush()
                return
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.commit()
                self._conn.close()
            self._conn = None
            self._conn_pid = None


def _load_or_init_shard_count(root_dir: Path, requested: int) -> int:
    """The shard count recorded in ``shards.json``, written on first use."""
    if requested < 1:
        raise StorageError(f"num_shards must be >= 1, got {requested}")
    manifest_path = root_dir / SHARD_MANIFEST_NAME
    if manifest_path.exists():
        try:
            recorded = json.loads(manifest_path.read_text("utf-8"))
            return int(recorded["num_shards"])
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                f"corrupt shard manifest at {manifest_path}: {exc}"
            ) from exc
    root_dir.mkdir(parents=True, exist_ok=True)
    # Temp file + atomic rename: a GC pass sniffing the run mid-create
    # must never read a half-written root manifest.
    tmp = manifest_path.with_name(f"{SHARD_MANIFEST_NAME}.{os.getpid()}-"
                                  f"{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(
        {"version": 1, "num_shards": requested,
         "partitioner": "sha256(block_id)[:8] % num_shards"}), "utf-8")
    os.replace(tmp, manifest_path)
    return requested


class StorageBackend:
    """A run's manifests behind a partitioner, over one payload plane.

    ``shards`` holds one :class:`Manifest` per partition — one for the
    ``local`` and ``memory`` layouts, ``num_shards`` for ``sharded`` —
    and rows route by ``int(sha256(block_id)[:8], 16) % num_shards``,
    stable across processes (``hash()`` is randomized for strings).  Run
    metadata lives in shard 0.  Payloads go to the home-shared object
    store when dedup is on; with ``dedup=False`` they are legacy files
    under each shard's ``checkpoints/`` tree or, in memory, ``mem:``
    entries of a dict.  The memory layout is not shared across processes
    (a forked child writes into its own copy): use in-process strategies.
    """

    def __init__(self, root_dir: str | Path, name: str = "local", *,
                 num_shards: int = DEFAULT_NUM_SHARDS, dedup: bool = True):
        if name not in BACKEND_NAMES:
            raise StorageError(
                f"unknown storage backend {name!r}; known backends: "
                f"{', '.join(BACKEND_NAMES)}")
        self.name = name
        self.root_dir = Path(root_dir)
        home = self.root_dir.parent
        self._payload_dirs: list[Path] = []
        self._blobs: dict[str, bytes] | None = None
        self._objects: PayloadObjectStore | None = None
        if name == "memory":
            self.shards = [Manifest(None)]
            self._blobs = {}
            # Shared per home so in-memory runs dedup against each other.
            if dedup:
                self._objects = MemoryObjectStore.for_dir(home)
        else:
            dirs = [self.root_dir]
            if name == "sharded":
                count = _load_or_init_shard_count(self.root_dir,
                                                  int(num_shards))
                dirs = [self.root_dir / "shards" / f"shard-{k:02d}"
                        for k in range(count)]
            self._payload_dirs = [d / "checkpoints" for d in dirs]
            for payload_dir in self._payload_dirs:
                payload_dir.mkdir(parents=True, exist_ok=True)
            self.shards = [Manifest(d / "manifest.sqlite") for d in dirs]
            # One object store per home: an identical payload is one blob
            # whichever shard its row lands in, and across runs.
            if dedup:
                self._objects = FileObjectStore.for_dir(
                    default_objects_dir(home))
        self.num_shards = len(self.shards)
        #: The manifest holding the run metadata table.
        self.metadata: Manifest = self.shards[0]

    def shard_for(self, block_id: str) -> int:
        if self.num_shards == 1:
            return 0
        return int(stable_hash(block_id)[:8], 16) % self.num_shards

    def _shard(self, block_id: str) -> Manifest:
        return self.shards[self.shard_for(block_id)]

    def _group_by_shard(self, items, block_of) -> dict[int, list]:
        """Items bucketed by shard, buckets in first-appearance order."""
        groups: dict[int, list] = {}
        for item in items:
            groups.setdefault(self.shard_for(block_of(item)), []).append(item)
        return groups

    # -- payload plane ----------------------------------------------------
    def write_payload(self, block_id: str, execution_index: int,
                      payload: bytes, *, digest: str | None = None) -> str:
        """Durably store one payload and return its location string.

        ``digest``, when the caller already hashed the payload for the
        manifest, is reused as the content address instead of rehashing.
        """
        if self._objects is not None:
            return self._objects.put(digest or digest_bytes(payload), payload)
        if self._blobs is not None:
            # No "//" in the scheme: locations round-trip through pathlib,
            # which collapses duplicate slashes.
            location = f"mem:{sanitize_block_id(block_id)}/{execution_index}"
            self._blobs[location] = bytes(payload)
            return location
        path = (self._payload_dirs[self.shard_for(block_id)]
                / sanitize_block_id(block_id) / f"{execution_index}.ckpt")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return str(path)

    def read_payload(self, location: str) -> bytes:
        if self._blobs is None:
            return Path(location).read_bytes()
        object_digest = MemoryObjectStore.digest_of_location(location)
        if object_digest is not None and self._objects is not None:
            return self._objects.get(object_digest)
        try:
            return self._blobs[str(location)]
        except KeyError:
            raise StorageError(
                f"no in-memory payload at {location!r}") from None

    def discard_payload(self, location: str) -> int:
        """Delete one *legacy* (per-execution) payload; returns bytes freed.

        Content-addressed blobs are never deleted through this — they may
        be shared — only by the lifecycle GC once unreferenced.
        """
        if self._blobs is not None:
            if MemoryObjectStore.digest_of_location(location) is not None:
                return 0
            blob = self._blobs.pop(str(location), None)
            return len(blob) if blob is not None else 0
        path = Path(location)
        if not any(path.is_relative_to(d) for d in self._payload_dirs):
            return 0  # a shared blob or another run's file: GC's call
        try:
            nbytes = path.stat().st_size
            path.unlink()
            return nbytes
        except FileNotFoundError:
            return 0

    def object_store(self) -> PayloadObjectStore | None:
        """The content-addressed store payloads dedup into (None = legacy)."""
        return self._objects

    # -- manifest plane ---------------------------------------------------
    def index_many(self, records: Sequence[CheckpointRecord]) -> None:
        """Commit a batch of manifest rows: one transaction per shard."""
        for shard, batch in self._group_by_shard(
                records, lambda r: r.block_id).items():
            self.shards[shard].index_many(batch)

    def delete_many(self, keys: Sequence[tuple[str, int]]
                    ) -> list[CheckpointRecord]:
        """Delete manifest rows by key; returns the rows that existed.

        The *manifest-first* half of retention: rows go in one transaction
        per shard before any payload is discarded, so a crash in between
        leaves orphaned payloads, never dangling rows.
        """
        deleted: list[CheckpointRecord] = []
        for shard, batch in self._group_by_shard(
                keys, lambda key: key[0]).items():
            deleted.extend(self.shards[shard].delete_many(batch))
        return deleted

    def referenced_digests(self) -> dict[str, int]:
        """``digest -> manifest row count``: refcounts derived, not stored.

        Consistent with the rows by construction; the lifecycle GC unions
        these across every run under a home before sweeping.
        """
        merged: Counter = Counter()
        for shard in self.shards:
            merged.update(shard.referenced_digests())
        return dict(merged)

    def lookup(self, block_id: str, execution_index: int
               ) -> CheckpointRecord | None:
        return self._shard(block_id).lookup(block_id, execution_index)

    def executions(self, block_id: str) -> list[int]:
        """Sorted execution indices of ``block_id`` with a checkpoint."""
        return self._shard(block_id).executions(block_id)

    def latest_execution_at_or_before(self, block_id: str,
                                      execution_index: int) -> int | None:
        return self._shard(block_id).latest_execution_at_or_before(
            block_id, execution_index)

    def blocks(self) -> list[str]:
        return sorted({block for shard in self.shards
                       for block in shard.blocks()})

    def records(self) -> list[CheckpointRecord]:
        merged = [record for shard in self.shards
                  for record in shard.records()]
        merged.sort(key=lambda r: (r.block_id, r.execution_index))
        return merged

    def totals(self) -> ManifestTotals:
        """Checkpoint count and stored/raw byte sums: one scan per shard."""
        return ManifestTotals(*(sum(column) for column in zip(
            *(shard.totals() for shard in self.shards))))

    # -- lifecycle --------------------------------------------------------
    def flush(self) -> None:
        """Make every accepted write durable."""
        for shard in self.shards:
            shard.flush()

    def close(self) -> None:
        """Release resources.  The backend reopens lazily if used again."""
        for shard in self.shards:
            shard.close()


#: Process-wide registry of in-memory backends, keyed by resolved run dir,
#: so reopening a store in the same process attaches to the same data.
_MEMORY_REGISTRY: dict[str, StorageBackend] = {}
_MEMORY_REGISTRY_LOCK = threading.Lock()


def _registry_key(root_dir: str | Path) -> str:
    return str(Path(root_dir).expanduser().resolve())


def discard_memory_dir(run_dir: str | Path) -> None:
    """Drop the registered in-memory backend for ``run_dir`` (test hygiene)."""
    with _MEMORY_REGISTRY_LOCK:
        _MEMORY_REGISTRY.pop(_registry_key(run_dir), None)


def registered_memory_backends(home: str | Path) -> list[StorageBackend]:
    """Registered in-memory backends whose run dir sits under ``home``.

    The lifecycle GC's view of in-memory runs: their manifests exist only
    in this registry, so the mark phase must include them alongside the
    on-disk run dirs it scans.
    """
    home_key = str(Path(home).expanduser().resolve())
    with _MEMORY_REGISTRY_LOCK:
        items = list(_MEMORY_REGISTRY.items())
    return [backend for key, backend in items
            if str(Path(key).parent) == home_key]


def resolve_backend(run_dir: str | Path,
                    backend: "StorageBackend | str | None" = None,
                    *, num_shards: int | None = None,
                    dedup: bool = True) -> StorageBackend:
    """Resolve a backend for ``run_dir``.

    An explicit :class:`StorageBackend` instance wins.  Otherwise an
    existing on-disk layout is sniffed first — a ``shards.json`` reopens
    the run as sharded (with its recorded shard count) and an in-memory
    registration reattaches it in-process — so replaying a run never
    requires the caller to know how it was recorded.  Absent both, the
    named backend (default ``"local"``) is created.  ``dedup`` routes new
    payload writes through the home-shared content-addressed object store
    (reads always follow the manifest's recorded locations, so either
    setting reads either layout).
    """
    if isinstance(backend, StorageBackend):
        return backend
    run_dir = Path(run_dir)
    shards = num_shards or DEFAULT_NUM_SHARDS
    if (run_dir / SHARD_MANIFEST_NAME).exists():
        return StorageBackend(run_dir, "sharded", num_shards=shards,
                              dedup=dedup)
    if (run_dir / "manifest.sqlite").exists():
        # An existing local run wins over any requested name: replaying a
        # recorded run must work regardless of the caller's configuration.
        return StorageBackend(run_dir, "local", dedup=dedup)
    key = _registry_key(run_dir)
    with _MEMORY_REGISTRY_LOCK:
        registered = _MEMORY_REGISTRY.get(key)
        if registered is not None and backend in (None, "local", "memory"):
            return registered
        if backend == "memory":
            # ``dedup`` only matters on first creation: reattachment keeps
            # the layout the run was recorded under.
            registered = _MEMORY_REGISTRY[key] = StorageBackend(
                run_dir, "memory", dedup=dedup)
            return registered
    return StorageBackend(run_dir, backend or "local", num_shards=shards,
                          dedup=dedup)
