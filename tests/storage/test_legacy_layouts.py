"""Golden old-layout homes: manifests written by earlier schemas still open.

Each home here is laid out by hand — raw ``sqlite3`` for the manifests,
raw file writes for the payloads — exactly as older versions of the store
left it, so the test pins the on-disk contract rather than whatever the
current writer happens to produce.  Two schemas:

* **pre-dedup** — the original nine-column ``checkpoints`` table; every
  payload is a bare-gzip ``checkpoints/<block>/<i>.ckpt`` file;
* **pre-chunking** — adds ``payload_digest`` (no ``recipe``); one row
  points into the home-shared object store, one at a legacy file.

Each is laid out both as ``local`` and as ``sharded`` (``shards.json``
plus one manifest per shard).  Reopening through
:class:`~repro.storage.checkpoint_store.CheckpointStore` must migrate the
columns in place, serve every checkpoint bit-exactly, and survive a GC
sweep that leaves the legacy files alone.
"""

from __future__ import annotations

import gzip
import json
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compression import decompress
from repro.storage.lifecycle import collect_garbage
from repro.storage.serializer import (deserialize_checkpoint,
                                     serialize_checkpoint, snapshot_value)
from repro.utils.hashing import digest_bytes, stable_hash

NUM_SHARDS = 2

_COLUMNS_PRE_DEDUP = """
    block_id         TEXT NOT NULL,
    execution_index  INTEGER NOT NULL,
    path             TEXT NOT NULL,
    raw_nbytes       INTEGER NOT NULL,
    stored_nbytes    INTEGER NOT NULL,
    digest           TEXT NOT NULL,
    serialize_seconds REAL NOT NULL,
    write_seconds    REAL NOT NULL,
    created_at       REAL NOT NULL,"""

SCHEMAS = {
    "pre-dedup": _COLUMNS_PRE_DEDUP,
    "pre-chunking": _COLUMNS_PRE_DEDUP + """
    payload_digest   TEXT NOT NULL DEFAULT '',""",
}

# Two blocks that the sha256 partitioner sends to different shards, so the
# sharded home really holds rows in more than one manifest.
BLOCKS = ("train", "test")


def _serialized(value: float) -> bytes:
    return serialize_checkpoint([
        snapshot_value("weights", np.full(32, value, dtype=np.float32)),
        snapshot_value("epoch", int(value))]).data


def _write_manifest(db_path: Path, schema: str, rows: list[tuple],
                    metadata: dict[str, object]) -> None:
    db_path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(db_path)
    with conn:
        conn.executescript(f"""
            CREATE TABLE checkpoints ({SCHEMAS[schema]}
                PRIMARY KEY (block_id, execution_index));
            CREATE TABLE run_metadata (key TEXT PRIMARY KEY,
                                       value TEXT NOT NULL);
            CREATE INDEX idx_checkpoints_block ON checkpoints (block_id);
        """)
        width = 10 if schema == "pre-chunking" else 9
        conn.executemany(
            f"INSERT INTO checkpoints VALUES ({', '.join('?' * width)})",
            [row[:width] for row in rows])
        conn.executemany("INSERT INTO run_metadata VALUES (?, ?)",
                         [(k, json.dumps(v)) for k, v in metadata.items()])
    conn.close()


def build_legacy_home(home: Path, schema: str, layout: str) -> dict:
    """Lay out one old-schema run; returns ``(block, index) -> raw bytes``.

    Rows are 10-tuples (the pre-chunking width); the pre-dedup writer
    drops the trailing ``payload_digest``.
    """
    run_dir = home / "legacy-run"
    shard_dirs = [run_dir]
    if layout == "sharded":
        run_dir.mkdir(parents=True)
        (run_dir / "shards.json").write_text(json.dumps(
            {"version": 1, "num_shards": NUM_SHARDS,
             "partitioner": "sha256(block_id)[:8] % num_shards"}), "utf-8")
        shard_dirs = [run_dir / "shards" / f"shard-{k:02d}"
                      for k in range(NUM_SHARDS)]

    def shard_of(block: str) -> int:
        if layout != "sharded":
            return 0
        return int(stable_hash(block)[:8], 16) % NUM_SHARDS

    assert layout != "sharded" or len({shard_of(b) for b in BLOCKS}) == 2
    expected: dict[tuple[str, int], bytes] = {}
    rows_by_shard: dict[int, list[tuple]] = {}
    for offset, block in enumerate(BLOCKS):
        for index in range(2):
            raw = _serialized(float(10 * offset + index))
            stored = gzip.compress(raw, mtime=0)
            digest = digest_bytes(stored)
            shard = shard_of(block)
            if schema == "pre-chunking" and index == 1:
                # A deduplicated row: the blob lives in the home's store.
                path = home / "objects" / digest[:2] / digest
                payload_digest = digest
            else:
                path = (shard_dirs[shard] / "checkpoints" / block
                        / f"{index}.ckpt")
                payload_digest = ""
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(stored)
            rows_by_shard.setdefault(shard, []).append(
                (block, index, str(path), len(raw), len(stored), digest,
                 0.001, 0.001, 1_600_000_000.0 + index, payload_digest))
            expected[(block, index)] = raw
    for shard, shard_dir in enumerate(shard_dirs):
        metadata = {"run_id": "legacy-run", "loop_blocks": list(BLOCKS)}
        _write_manifest(shard_dir / "manifest.sqlite", schema,
                        rows_by_shard.get(shard, []),
                        metadata if shard == 0 else {})
    return expected


def _columns(db_path: Path) -> list[str]:
    conn = sqlite3.connect(db_path)
    try:
        return [row[1] for row in
                conn.execute("PRAGMA table_info(checkpoints)")]
    finally:
        conn.close()


def _manifest_paths(run_dir: Path) -> list[Path]:
    return sorted(run_dir.rglob("manifest.sqlite"))


@pytest.mark.parametrize("layout", ["local", "sharded"])
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_old_schema_home_reopens_migrates_and_survives_gc(
        tmp_path, schema, layout):
    home = tmp_path / "home"
    expected = build_legacy_home(home, schema, layout)
    run_dir = home / "legacy-run"
    legacy_files = sorted(p for p in run_dir.rglob("*.ckpt"))
    legacy_bytes = {p: p.read_bytes() for p in legacy_files}
    assert legacy_files

    # A default store sniffs the layout; nobody tells it how it was made.
    store = CheckpointStore(run_dir)
    try:
        assert store.backend.name == layout
        assert store.backend.num_shards == (
            NUM_SHARDS if layout == "sharded" else 1)
        assert store.get_metadata("run_id") == "legacy-run"

        # Columns are migrated in place, on every manifest of the layout.
        for db_path in _manifest_paths(run_dir):
            columns = _columns(db_path)
            assert columns[-2:] == ["payload_digest", "recipe"], db_path

        def assert_bit_exact():
            records = {(r.block_id, r.execution_index): r
                       for r in store.records()}
            assert set(records) == set(expected)
            for key, raw in expected.items():
                stored = store.backend.read_payload(str(records[key].path))
                assert decompress(stored) == raw, key
                assert (serialize_checkpoint(store.get(*key)).data
                        == serialize_checkpoint(
                            deserialize_checkpoint(raw)).data), key

        assert_bit_exact()
        assert store.totals().checkpoints == len(expected)

        # GC may only touch content-addressed blobs no manifest references:
        # legacy files are outside its remit, referenced blobs stay.
        report = collect_garbage(home, grace_seconds=0.0)
        assert report.swept_objects == 0
        for path, payload in legacy_bytes.items():
            assert path.read_bytes() == payload, path
        assert_bit_exact()

        # The migrated manifest takes new rows next to the old ones.
        store.put("train", 7, [snapshot_value("epoch", 7)])
        assert store.executions("train") == [0, 1, 7]
    finally:
        store.close()


@pytest.mark.parametrize("layout", ["local", "sharded"])
def test_migration_is_idempotent_across_reopens(tmp_path, layout):
    home = tmp_path / "home"
    expected = build_legacy_home(home, "pre-dedup", layout)
    run_dir = home / "legacy-run"
    for _ in range(2):
        store = CheckpointStore(run_dir)
        assert len(store.records()) == len(expected)
        store.close()
    for db_path in _manifest_paths(run_dir):
        assert _columns(db_path).count("recipe") == 1
