"""Checkpoint storage backend: the manifest and payload planes of one run.

A backend owns the two planes of the checkpoint store: the **manifest
plane** — the index of checkpoints by ``(block_id, execution_index)``
with sizes, timings and digests, plus a small run-metadata table, kept in
:class:`Manifest` (one SQLite database) — and the **payload plane** of
opaque blobs addressed by *location* strings.
:class:`~repro.storage.checkpoint_store.CheckpointStore` routes every read
and write through :class:`StorageBackend`, so the rest of the system never
touches SQLite or the filesystem directly.

Every new run is written in one layout: ``manifest.sqlite`` in the run
directory, payloads in the home's object store.  The layout of an
existing run is read from disk, never named by the caller:

``local``
    One ``manifest.sqlite``; runs older versions wrote without dedup also
    keep legacy per-execution payloads under ``checkpoints/``, which are
    read, deleted with their pruned rows and counted in storage stats,
    but never written.
``sharded`` (legacy)
    Runs written by older versions: a ``shards.json`` root manifest
    plus ``num_shards`` local-style subtrees ``shards/shard-<k>/``, rows
    routed by ``sha256(block_id)[:8] % num_shards``, run metadata in
    shard 0.  Such runs keep working — reads, new rows, memo write-back,
    prune and GC — through the same routing; no new run is created this
    way.

The durability contract every layout honours: a payload is written
*before* its manifest row is committed, so the manifest never references a
missing payload.  New payloads go to the object store shared by every run
under the home (:mod:`repro.storage.objectstore`), with reference counts
*derived* from the manifest rows.
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
from ..utils.hashing import stable_hash
from ..utils.timing import monotonic
from .objectstore import FileObjectStore, default_objects_dir

__all__ = ["CheckpointRecord", "Manifest", "ManifestTotals",
           "StorageBackend"]

#: Filename of a legacy sharded run's root manifest (also the sniffing key
#: that lets a reopening store detect the sharded layout).
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
    #: (which older versions wrote, prune deletes and GC leaves
    #: untouched) and for chunked rows (whose blobs the recipe names).
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


class Manifest:
    """One SQLite checkpoint manifest: checkpoint rows plus run metadata.

    One connection is opened per process and reused for every operation.
    On disk it runs in WAL mode so readers never block the writer; a
    thread lock serializes access from the training thread and background
    spool workers, and the connection is transparently reopened in
    children after ``fork`` (parallel replay and forked recorders can
    fork with a live store).
    """

    def __init__(self, path: Path):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
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
        for column in ("payload_digest",  # pre-dedup manifests
                       "recipe"):  # pre-delta-checkpoint manifests
            if column in columns:
                continue
            try:
                conn.execute(f"ALTER TABLE checkpoints ADD COLUMN "
                             f"{column} TEXT NOT NULL DEFAULT ''")
            except sqlite3.OperationalError as exc:
                # Another opener of the same run (a GC mark pass, a
                # second worker) added it after our column check.
                if "duplicate column name" not in str(exc):
                    raise

    def _connection(self) -> sqlite3.Connection:
        """The process-wide connection, (re)opened lazily and after fork."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            # After fork the inherited connection object must not be used
            # (or even closed) in the child; just drop the reference.
            conn = sqlite3.connect(self.path,
                                   timeout=_BUSY_TIMEOUT_S,
                                   check_same_thread=False)
            # Shared homes see cross-process contention: a GC pass opens
            # other runs' manifests to mark references while their owners
            # create them or commit batches.  busy_timeout makes SQLite
            # retry-wait at the C level instead of surfacing "database is
            # locked" (the connect-level timeout only covers acquiring the
            # initial lock, not later lock upgrades).
            conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
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
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.commit()
                self._conn.close()
            self._conn = None
            self._conn_pid = None


def _load_shard_count(root_dir: Path) -> int:
    """The shard count a legacy sharded run recorded in ``shards.json``."""
    manifest_path = root_dir / SHARD_MANIFEST_NAME
    try:
        recorded = json.loads(manifest_path.read_text("utf-8"))
        count = int(recorded["num_shards"])
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError(
            f"corrupt shard manifest at {manifest_path}: {exc}") from exc
    if count < 1:
        raise StorageError(
            f"corrupt shard manifest at {manifest_path}: num_shards "
            f"must be >= 1, got {count}")
    return count


class StorageBackend:
    """A run's manifests behind a partitioner, over one payload plane.

    ``shards`` holds one :class:`Manifest` per partition — one for every
    run written today, ``num_shards`` for a legacy sharded run — and rows
    route by ``int(sha256(block_id)[:8], 16) % num_shards``, stable across
    processes (``hash()`` is randomized for strings).  Run metadata lives
    in shard 0.  New payloads go to the home-shared object store; reads
    follow the locations the manifest rows record, which for runs older
    versions wrote may be legacy files under each shard's ``checkpoints/``
    tree.
    """

    def __init__(self, root_dir: str | Path):
        self.root_dir = Path(root_dir)
        dirs = [self.root_dir]
        self.name = "local"
        if (self.root_dir / SHARD_MANIFEST_NAME).exists():
            self.name = "sharded"
            dirs = [self.root_dir / "shards" / f"shard-{k:02d}"
                    for k in range(_load_shard_count(self.root_dir))]
        self._payload_dirs = [d / "checkpoints" for d in dirs]
        self.shards = [Manifest(d / "manifest.sqlite") for d in dirs]
        # One object store per home: an identical payload is one blob
        # whichever shard its row lands in, and across runs.
        self._objects = FileObjectStore.for_dir(
            default_objects_dir(self.root_dir.parent))
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
    def read_payload(self, location: str) -> bytes:
        return Path(location).read_bytes()

    def discard_payload(self, location: str) -> int:
        """Delete one *legacy* (per-execution) payload; returns bytes freed.

        Content-addressed blobs are never deleted through this — they may
        be shared — only by the lifecycle GC once unreferenced.
        """
        path = Path(location)
        if not any(path.is_relative_to(d) for d in self._payload_dirs):
            return 0  # a shared blob or another run's file: GC's call
        try:
            nbytes = path.stat().st_size
            path.unlink()
            return nbytes
        except FileNotFoundError:
            return 0

    def object_store(self) -> FileObjectStore:
        """The home's content-addressed store every new payload goes to."""
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
