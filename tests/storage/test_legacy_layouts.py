"""Golden old-layout homes: manifests written by earlier schemas still open.

Each home here is laid out by hand — raw ``sqlite3`` for the manifests,
raw file writes for the payloads — exactly as older versions of the store
left it, so the test pins the on-disk contract rather than whatever the
current writer happens to produce.  Three schemas:

* **pre-dedup** — the original nine-column ``checkpoints`` table; every
  payload is a bare-gzip ``checkpoints/<block>/<i>.ckpt`` file;
* **pre-chunking** — adds ``payload_digest`` (no ``recipe``); one row
  points into the home-shared object store, one at a legacy file;
* **current** — adds ``recipe``.  Per block: a chunked row (gzip-framed
  chunk blobs in ``objects/``); an unframed whole payload as
  ``compress_checkpoints=False`` wrote it, once in the object store and
  once as a legacy file; a recipe cut at uneven, content-defined-style
  lengths whose blobs are framed zlib and lzma (frame ids 2 and 3), as
  ``chunking="cdc"`` with ``codec="zlib"`` / ``"lzma"`` wrote them; and
  a raw-framed whole row (frame id 0), as ``codec="raw"`` wrote it.  No
  current writer produces the last two.

Each is laid out both as ``local`` and as ``sharded`` (``shards.json``
plus one manifest per shard; no current version creates one).  Reopening
through
:class:`~repro.storage.checkpoint_store.CheckpointStore` must migrate the
columns in place, serve every checkpoint bit-exactly, survive a GC sweep
that leaves the legacy files alone, and survive a prune + GC that deletes
the pruned rows' legacy files and blobs and nothing still referenced.
"""

from __future__ import annotations

import gzip
import json
import lzma
import sqlite3
import zlib
from pathlib import Path

import numpy as np
import pytest

from faultutils import assert_no_orphans
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compression import FRAME_MAGIC, codec_of, decompress
from repro.storage.lifecycle import (RetentionPolicy, collect_garbage,
                                     measure_storage, prune_store)
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

_COLUMNS_PRE_CHUNKING = _COLUMNS_PRE_DEDUP + """
    payload_digest   TEXT NOT NULL DEFAULT '',"""

SCHEMAS = {
    "pre-dedup": _COLUMNS_PRE_DEDUP,
    "pre-chunking": _COLUMNS_PRE_CHUNKING,
    "current": _COLUMNS_PRE_CHUNKING + """
    recipe           TEXT NOT NULL DEFAULT '',""",
}

#: Columns each schema's rows carry (rows are built 11 wide).
WIDTHS = {"pre-dedup": 9, "pre-chunking": 10, "current": 11}

#: Frame of a gzip chunk blob: magic, then the codec id byte (gzip = 1).
_GZIP_FRAME = FRAME_MAGIC + bytes([1])

#: Frames only older versions wrote, by frame id: raw (0), zlib (2) and
#: lzma (3).
_RAW_FRAME = FRAME_MAGIC + bytes([0])
_OLD_CHUNK_FRAMES = (
    lambda chunk: FRAME_MAGIC + bytes([2]) + zlib.compress(chunk, 6),
    lambda chunk: FRAME_MAGIC + bytes([3]) + lzma.compress(chunk, preset=1),
)

#: Uneven chunk lengths, as a content-defined chunker cut them; the last
#: chunk takes the remainder.
_UNEVEN_CUTS = (37, 101, 11, 64)

#: Executions per block: the ``current`` schema adds the two rows only
#: older writers produced.
INDICES = {"pre-dedup": 2, "pre-chunking": 2, "current": 4}

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
        width = WIDTHS[schema]
        conn.executemany(
            f"INSERT INTO checkpoints VALUES ({', '.join('?' * width)})",
            [row[:width] for row in rows])
        conn.executemany("INSERT INTO run_metadata VALUES (?, ?)",
                         [(k, json.dumps(v)) for k, v in metadata.items()])
    conn.close()


def _write_blob(home: Path, digest: str, blob: bytes) -> Path:
    path = home / "objects" / digest[:2] / digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path


def _chunked_row(home: Path, block: str, index: int, raw: bytes,
                 chunks: list[bytes], frames) -> tuple:
    """A chunked row: chunk digests address raw chunk bytes, blobs are
    frames, the row digest covers the joined raw payload, and the path
    names no file."""
    assert b"".join(chunks) == raw
    for position, chunk in enumerate(chunks):
        _write_blob(home, digest_bytes(chunk),
                    frames[position % len(frames)](chunk))
    recipe = ",".join(digest_bytes(chunk) for chunk in chunks)
    return (block, index, f"recipe:{len(chunks)}", len(raw),
            sum(len(c) for c in chunks), digest_bytes(raw),
            0.001, 0.001, 1_600_000_000.0 + index, "", recipe)


def _uneven_chunks(raw: bytes) -> list[bytes]:
    chunks, start = [], 0
    for length in _UNEVEN_CUTS:
        chunks.append(raw[start:start + length])
        start += length
    assert start < len(raw)
    return chunks + [raw[start:]]


def build_legacy_home(home: Path, schema: str, layout: str) -> dict:
    """Lay out one old-schema run; returns ``(block, index) -> raw bytes``.

    Rows are 11-tuples (the current width); older schemas drop the
    trailing ``recipe`` and ``payload_digest``.
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
        for index in range(INDICES[schema]):
            raw = _serialized(float(10 * offset + index))
            shard = shard_of(block)
            recipe = ""
            expected[(block, index)] = raw
            if schema == "current" and index in (0, 2):
                if index == 0:  # gzip-framed halves
                    chunks = [raw[:len(raw) // 2], raw[len(raw) // 2:]]
                    frames = [lambda c: _GZIP_FRAME + gzip.compress(
                        c, mtime=0)]
                else:  # uneven content-defined-style cuts, zlib / lzma
                    chunks, frames = _uneven_chunks(raw), _OLD_CHUNK_FRAMES
                rows_by_shard.setdefault(shard, []).append(_chunked_row(
                    home, block, index, raw, chunks, frames))
                continue
            if schema == "current" and index == 3:
                # A raw-framed whole row in the object store.
                stored = _RAW_FRAME + raw
                digest = digest_bytes(stored)
                path = _write_blob(home, digest, stored)
                rows_by_shard.setdefault(shard, []).append(
                    (block, index, str(path), len(raw), len(stored), digest,
                     0.001, 0.001, 1_600_000_000.0 + index, digest, ""))
                continue
            # Whole rows digest the stored bytes; ``current`` stores them
            # unframed, as an uncompressed store wrote them.
            stored = raw if schema == "current" else gzip.compress(
                raw, mtime=0)
            digest = digest_bytes(stored)
            if (schema == "pre-chunking" or
                    (schema == "current" and block == BLOCKS[0])) \
                    and index == 1:
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
                 0.001, 0.001, 1_600_000_000.0 + index, payload_digest,
                 recipe))
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
                if not records[key].is_chunked():
                    stored = store.backend.read_payload(
                        str(records[key].path))
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
        assert store.executions("train") == [*range(INDICES[schema]), 7]
    finally:
        store.close()


def _blob_frames(home: Path) -> set:
    return {codec_of(path.read_bytes())
            for path in (home / "objects").rglob("*") if path.is_file()}


@pytest.mark.parametrize("layout", ["local", "sharded"])
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_old_schema_home_survives_prune_and_gc(tmp_path, schema, layout):
    """Prune + GC delete what pruned rows alone held, and nothing else."""
    home = tmp_path / "home"
    expected = build_legacy_home(home, schema, layout)
    run_dir = home / "legacy-run"
    if schema == "current":
        # Every frame id the read side knows is on disk.
        assert _blob_frames(home) == {None, "raw", "gzip", "zlib", "lzma"}
    store = CheckpointStore(run_dir)
    try:
        before = {(r.block_id, r.execution_index): r
                  for r in store.records()}
        keep = INDICES[schema] // 2
        report = prune_store(store, RetentionPolicy(keep_last_n=keep))
        pruned = set(report.pruned_keys)
        assert pruned == {key for key in expected if key[1] < keep}
        legacy_pruned = [before[key].path for key in pruned
                         if before[key].is_legacy_payload()]
        assert report.legacy_payload_nbytes_freed > 0
        collect_garbage(home, grace_seconds=0.0,
                        release_hints=report.released_digests)
        # The pruned rows' legacy files went with them; every survivor's
        # legacy file and blob is still there, and no blob is unreferenced.
        assert legacy_pruned and not any(p.exists() for p in legacy_pruned)
        for key, record in before.items():
            if key not in pruned and record.is_legacy_payload():
                assert record.path.exists(), key
        assert_no_orphans(home)
        fresh = CheckpointStore(run_dir)
        try:
            assert {(r.block_id, r.execution_index)
                    for r in fresh.records()} == set(expected) - pruned
            for key in set(expected) - pruned:
                assert (serialize_checkpoint(fresh.get(*key)).data
                        == serialize_checkpoint(
                            deserialize_checkpoint(expected[key])).data), key
        finally:
            fresh.close()
        if schema == "current":
            # The survivors are the zlib / lzma recipe and the raw row.
            assert {"raw", "zlib", "lzma"} <= _blob_frames(home)
    finally:
        store.close()


@pytest.mark.parametrize("layout", ["local", "sharded"])
def test_legacy_only_home_counts_its_files_as_physical(tmp_path, layout):
    """A home that stores every checkpoint in full costs its full size."""
    home = tmp_path / "home"
    build_legacy_home(home, "pre-dedup", layout)
    files = sorted((home / "legacy-run").rglob("*.ckpt"))
    stats = measure_storage(home)
    assert stats.checkpoints == len(files)
    assert stats.physical_objects == len(files)
    assert stats.physical_nbytes == sum(p.stat().st_size for p in files)
    assert stats.legacy_nbytes == stats.logical_nbytes > 0
    assert stats.dedup_ratio == 1.0


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
