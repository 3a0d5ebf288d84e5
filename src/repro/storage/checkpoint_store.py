"""The checkpoint store: one facade over the storage backend.

Layout per run::

    <home>/<run_id>/
        manifest.sqlite        -- SQLite index of every checkpoint + run metadata
        checkpoints/           -- legacy per-execution payload files
            <block_id>/<execution_index>.ckpt     (older versions only)
        source/                -- snapshot of the user's code at record time
        record.log             -- the record-phase log (user metrics)
        replay-*.log           -- per-worker replay logs
    <home>/objects/<d[:2]>/<digest>  -- content-addressed payload blobs,
                                        shared by every run under the home

Every new checkpoint goes to the home-shared object store.  Under the
default configuration (``FlorConfig.chunking="fixed"``) a checkpoint is a
*recipe* of content-addressed chunk blobs, of which only the new ones are
written; with chunking off a whole payload is one blob named by its
digest.  Either way each blob is gzip-framed unless the content probe
frames it raw (:mod:`repro.storage.compression`).  That is the only write
path.  The read path follows the manifest row and the frame id, so
checkpoints older versions wrote — legacy ``checkpoints/`` files,
content-defined chunk recipes, zlib- or lzma-framed blobs, bare gzip —
still read, prune and collect.  Runs written in the sharded layout
(``shards.json`` plus ``shards/shard-<k>/`` subtrees) still open: the
backend reads the layout from disk.  See :mod:`repro.storage.backends`.

:class:`CheckpointStore` owns what is common to every layout: payload
encoding and chunking, digests, timing measurements, JSON encoding of run
metadata, and the source-code snapshots replay needs for probe detection
(sources always live on the filesystem — they are tiny and the replayer
reads them before any backend is involved).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Mapping

from ..exceptions import (CheckpointNotFoundError, SerializationError,
                          StorageError)
from ..telemetry import get_metrics, get_tracer
from ..utils.hashing import digest_bytes
from ..utils.timing import monotonic
from . import compression
from .backends import CheckpointRecord, ManifestTotals, StorageBackend
from .chunking import DEFAULT_CHUNK_NBYTES, chunk_payload
from .serializer import (SerializedCheckpoint, ValueSnapshot,
                         deserialize_checkpoint, payload_segments,
                         serialize_checkpoint)

__all__ = ["CheckpointRecord", "CheckpointStore"]

#: Synthetic ``path`` prefix of chunked manifest rows: the payload has no
#: single location — the recipe's chunk digests address it.
RECIPE_LOCATION_PREFIX = "recipe:"


class CheckpointStore:
    """Backend-routed store of Loop End Checkpoints for a single run.

    ``chunking="fixed"`` turns on delta checkpoints: serialized payloads
    split into content-addressed chunks, the manifest row records the
    ordered chunk-digest *recipe*, and only chunks whose digest is new
    reach the object store — epoch N+1 pays for what changed.
    ``"off"`` stores each payload whole.  The read path follows whatever
    layout the manifest row records, so any store setting replays any run.
    """

    def __init__(self, run_dir: str | Path, *, chunking: str = "off",
                 chunk_nbytes: int = DEFAULT_CHUNK_NBYTES):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.source_dir = self.run_dir / "source"
        self.chunking = chunking
        self.chunk_nbytes = chunk_nbytes
        self.backend = StorageBackend(self.run_dir)
        # ``digest -> raw bytes`` of the last chunked ``get``'s verified
        # chunks: at most one checkpoint, replaced (never grown) per read.
        self._restored_chunks: dict[str, bytes] = {}

    @classmethod
    def for_config(cls, run_dir: str | Path, config) -> "CheckpointStore":
        """Open a store with every storage knob taken from a FlorConfig.

        The one place the config-to-store kwarg mapping lives — sessions,
        the catalog, the query engine and the lifecycle API all open
        stores through it, so a new storage knob propagates everywhere at
        once.
        """
        return cls(run_dir, chunking=config.chunking,
                   chunk_nbytes=config.chunk_nbytes)

    # ------------------------------------------------------------------ #
    # Run metadata
    # ------------------------------------------------------------------ #
    def set_metadata(self, key: str, value) -> None:
        """Store a JSON-serializable run-level metadata value."""
        self.backend.metadata.set_metadata_json(key, json.dumps(value))

    def get_metadata(self, key: str, default=None):
        encoded = self.backend.metadata.get_metadata_json(key)
        if encoded is None:
            return default
        return json.loads(encoded)

    def update_metadata(self, key: str, update):
        """Atomically read-modify-write one metadata value.

        ``update`` maps the currently stored value (or None) to the value
        to store; the pair runs inside one backend writer transaction, so
        concurrent updaters of the same key — e.g. two query processes
        merging memoized replay values into one run — never lose each
        other's writes.  Returns the stored result.
        """
        return json.loads(self.backend.metadata.update_metadata_json(
            key, lambda encoded: json.dumps(
                update(None if encoded is None else json.loads(encoded)))))

    def all_metadata(self) -> dict:
        encoded = self.backend.metadata.all_metadata_json()
        return {key: json.loads(value) for key, value in encoded.items()}

    def metadata_keys(self, prefix: str = "") -> list[str]:
        """Sorted metadata keys starting with ``prefix``.

        The query engine's memo cache namespaces write-back entries under
        prefixed keys and enumerates them through this scan.
        """
        return self.backend.metadata.metadata_keys(prefix)

    # ------------------------------------------------------------------ #
    # Source snapshots (needed for probe detection on replay)
    # ------------------------------------------------------------------ #
    def save_source(self, filename: str, source: str) -> Path:
        """Snapshot the user's source code as it looked at record time."""
        target = self.source_dir / filename
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return target

    def load_source(self, filename: str) -> str:
        target = self.source_dir / filename
        if not target.exists():
            raise StorageError(f"no recorded source named {filename!r} in "
                               f"{self.source_dir}")
        return target.read_text(encoding="utf-8")

    def list_sources(self) -> list[str]:
        if not self.source_dir.is_dir():
            return []
        return sorted(str(p.relative_to(self.source_dir))
                      for p in self.source_dir.rglob("*") if p.is_file())

    # ------------------------------------------------------------------ #
    # Checkpoint write path
    # ------------------------------------------------------------------ #
    def put(self, block_id: str, execution_index: int,
            snapshots: list[ValueSnapshot]) -> CheckpointRecord:
        """Serialize, encode and persist a checkpoint."""
        serialized = serialize_checkpoint(snapshots)
        return self.put_serialized(block_id, execution_index, serialized)

    def put_serialized(self, block_id: str, execution_index: int,
                       serialized: SerializedCheckpoint) -> CheckpointRecord:
        """Persist an already-serialized checkpoint payload."""
        record = self.write_payload(block_id, execution_index, serialized)
        self.backend.index_many([record])
        return record

    def resolve_codec(self, nbytes: int = 0) -> str:
        """The codec this store asks :func:`compression.compress` for.

        Always ``"gzip"``; whether a given chunk or payload is worth
        running it on is ``compress``'s content probe's call.  Kept for
        perfbench's layer pass; drop with that call.
        """
        return "gzip"

    def write_payload(self, block_id: str, execution_index: int,
                      serialized: SerializedCheckpoint) -> CheckpointRecord:
        """Encode and write one payload WITHOUT committing its manifest row.

        The async spool uses this to decouple the payload plane from
        batched manifest commits; the returned record must be passed to
        :meth:`index_records` to become visible.  Payload-before-manifest
        ordering is what keeps a crash mid-spool recoverable.  Routes to
        the chunked (delta) path when chunking is on; otherwise the
        payload is stored whole.
        """
        if self.chunking != "off":
            return self._write_chunked(block_id, execution_index, serialized)
        encoded = self.encode_whole(serialized.data)
        return self.write_encoded(block_id, execution_index, encoded,
                                  serialized.nbytes,
                                  serialized.serialize_seconds)

    def encode_whole(self, payload: bytes) -> bytes:
        """The stored form of a whole (non-chunked) payload."""
        with get_tracer().span("storage.encode", nbytes=len(payload)) as span:
            result = compression.compress(payload)
            span.set(codec=result.codec)
        get_metrics().inc(f"storage.codec.{result.codec}")
        return result.data

    def write_encoded(self, block_id: str, execution_index: int,
                      encoded: bytes, raw_nbytes: int,
                      serialize_seconds: float) -> CheckpointRecord:
        """Write an already-encoded whole payload (no manifest commit)."""
        stored_nbytes = len(encoded)
        # One hash serves both planes: the manifest's integrity digest and
        # the payload's content address.
        digest = digest_bytes(encoded)
        start = monotonic()
        with get_tracer().span("storage.put", block_id=block_id,
                               execution_index=execution_index,
                               nbytes=stored_nbytes):
            location = self.backend.object_store().put(digest, encoded)
        write_seconds = monotonic() - start
        get_metrics().inc("storage.bytes_stored", stored_nbytes)

        return CheckpointRecord(
            block_id=block_id,
            execution_index=execution_index,
            path=Path(location),
            raw_nbytes=raw_nbytes,
            stored_nbytes=stored_nbytes,
            digest=digest,
            serialize_seconds=serialize_seconds,
            write_seconds=write_seconds,
            created_at=time.time(),
            payload_digest=digest,
        )

    def _write_chunked(self, block_id: str, execution_index: int,
                       serialized: SerializedCheckpoint) -> CheckpointRecord:
        """The delta write path: store only chunks whose digest is new.

        Chunk digests are computed over the RAW chunk bytes (before the
        codec), so a chunk dedups no matter how its first occurrence was
        framed — by this version or an older one — and reassembly can
        verify every chunk after decompressing it.  Blobs are written
        before the manifest row referencing them exists
        (payload-before-manifest), exactly like the whole-payload path.
        """
        objects = self.backend.object_store()
        payload = serialized.data
        digest = digest_bytes(payload)
        start = monotonic()
        span = get_tracer().span("storage.chunk", block_id=block_id,
                                 execution_index=execution_index)
        recipe: list[str] = []
        stored_nbytes = 0
        reused_chunks = 0
        compressed_out = 0
        bypassed_nbytes = 0
        # New chunks by the codec their frame carries: the content probe
        # may frame chunks of one checkpoint differently.
        framed: Counter[str] = Counter()
        with span:
            for view in chunk_payload(payload, mode=self.chunking,
                                      chunk_nbytes=self.chunk_nbytes,
                                      segments=payload_segments(payload)):
                chunk_digest = digest_bytes(view)
                recipe.append(chunk_digest)
                blob_nbytes = objects.touch(chunk_digest)
                if blob_nbytes is None:
                    # Chunk blobs are ALWAYS framed (raw frames without
                    # compressing): reassembly decodes by frame id, so
                    # chunk content can never be mistaken for a codec
                    # magic.
                    result = compression.compress(view)
                    framed[result.codec] += 1
                    if result.codec == "raw":
                        bypassed_nbytes += result.raw_nbytes
                    compressed_out += result.compressed_nbytes
                    objects.put(chunk_digest, result.data)
                    blob_nbytes = result.compressed_nbytes
                else:
                    reused_chunks += 1
                stored_nbytes += blob_nbytes
            span.set(chunks=len(recipe), reused=reused_chunks,
                     raw_chunks=framed["raw"],
                     bypassed_nbytes=bypassed_nbytes)
        write_seconds = monotonic() - start
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("storage.chunks_reused", reused_chunks)
            metrics.inc("storage.chunks_new", len(recipe) - reused_chunks)
            metrics.inc("storage.bytes_stored", compressed_out)
            for name, chunks in framed.items():
                metrics.inc(f"storage.codec.{name}", chunks)

        return CheckpointRecord(
            block_id=block_id,
            execution_index=execution_index,
            path=Path(f"{RECIPE_LOCATION_PREFIX}{len(recipe)}"),
            raw_nbytes=serialized.nbytes,
            stored_nbytes=stored_nbytes,
            digest=digest,
            serialize_seconds=serialized.serialize_seconds,
            write_seconds=write_seconds,
            created_at=time.time(),
            payload_digest="",
            recipe=",".join(recipe),
        )

    def index_records(self, records: list[CheckpointRecord]) -> None:
        """Commit a batch of manifest rows in one backend transaction."""
        self.backend.index_many(records)

    # ------------------------------------------------------------------ #
    # Checkpoint read path
    # ------------------------------------------------------------------ #
    def contains(self, block_id: str, execution_index: int) -> bool:
        return self.backend.lookup(block_id, execution_index) is not None

    def get(self, block_id: str, execution_index: int,
            run_id: str = "?") -> list[ValueSnapshot]:
        """Load and deserialize the checkpoint for one loop execution.

        Follows whatever layout the manifest row records — chunked rows
        reassemble from their recipe, whole rows read one location — so a
        store opened with either chunking setting replays runs
        recorded under any other (including legacy recipe-less runs and
        the layouts and codecs older versions wrote).

        A chunked read costs what changed since this store's previous
        chunked read: chunks that read verified are reused by digest,
        the rest come from the object store.  Sequential replay
        and query jobs restore checkpoints in ascending order, so the
        previous restore is the nearest neighbour (the frozen part of a
        model costs nothing twice).  The full-payload digest is checked
        on every read: over the reassembled raw bytes of a chunked row,
        over the stored bytes (before decoding) of a whole row.
        """
        with get_tracer().span("storage.get", block_id=block_id,
                               execution_index=execution_index) as span:
            record = self.describe(block_id, execution_index, run_id=run_id)
            if record.is_chunked():
                previous = self._restored_chunks
                payload, chunks = self._reassemble(record, reuse=previous)
                self._restored_chunks = chunks
                span.set(reused=len(chunks.keys() & previous.keys()))
            else:
                payload = compression.decompress(self._read_whole(record))
            span.set(nbytes=len(payload), chunked=record.is_chunked())
            get_metrics().inc("storage.bytes_read", len(payload))
            return deserialize_checkpoint(payload)

    def _reassemble(self, record: CheckpointRecord,
                    reuse: Mapping[str, bytes] | None = None
                    ) -> tuple[bytes, dict[str, bytes]]:
        """Join a chunked row's payload back together, verifying each chunk.

        Returns the payload and its ``digest -> raw chunk`` map.  Chunks
        found in ``reuse`` (raw bytes an earlier reassembly verified) are
        taken from it; every other chunk is read from the object store,
        decoded and verified against its digest — chunk digests address
        RAW chunk bytes.  The joined payload is always verified against
        the row's full-payload digest.  A missing or corrupted blob
        surfaces as a :class:`SerializationError` naming the exact chunk.
        """
        objects = self.backend.object_store()
        where = f"{record.block_id}[{record.execution_index}]"
        reuse = reuse or {}
        digests = record.recipe_digests()
        chunks: dict[str, bytes] = {}
        parts: list[bytes] = []
        for position, chunk_digest in enumerate(digests):
            if chunk_digest not in chunks:
                chunks[chunk_digest] = reuse.get(chunk_digest) or (
                    self._read_chunk(objects, chunk_digest,
                                     f"checkpoint {where} chunk "
                                     f"{position + 1}/{len(digests)}"))
            parts.append(chunks[chunk_digest])
        payload = b"".join(parts)
        if digest_bytes(payload) != record.digest:
            raise SerializationError(
                f"checkpoint {where} reassembled from {len(digests)} chunks "
                "does not match its manifest digest")
        return payload, chunks

    def _read_whole(self, record: CheckpointRecord) -> bytes:
        """A whole row's stored bytes, verified against its manifest digest.

        Whole rows digest the bytes as stored (framed, gzip or unframed),
        so a flipped bit is caught before any decoder runs.
        """
        stored = self.backend.read_payload(str(record.path))
        if digest_bytes(stored) != record.digest:
            raise SerializationError(
                f"checkpoint {record.block_id}[{record.execution_index}] "
                f"at {record.path} is corrupt: stored bytes do not match "
                "its manifest digest")
        return stored

    @staticmethod
    def _read_chunk(objects, chunk_digest: str, what: str) -> bytes:
        """One chunk's raw bytes from the object store, digest-verified."""
        try:
            blob = objects.get(chunk_digest)
        except StorageError as exc:
            raise SerializationError(
                f"{what} is missing from the object store: {exc}") from exc
        try:
            raw = compression.decompress(blob)
        except Exception as exc:
            raise SerializationError(
                f"{what} ({chunk_digest[:12]}…) failed to decode: {exc}"
            ) from exc
        if digest_bytes(raw) != chunk_digest:
            raise SerializationError(
                f"{what} is corrupt: content does not match digest "
                f"{chunk_digest[:12]}…")
        return raw

    def describe(self, block_id: str, execution_index: int,
                 run_id: str = "?") -> CheckpointRecord:
        """Return the manifest row for one checkpoint (without loading it)."""
        record = self.backend.lookup(block_id, execution_index)
        if record is None:
            raise CheckpointNotFoundError(run_id, block_id, execution_index)
        return record

    def executions(self, block_id: str) -> list[int]:
        """Sorted execution indices that have a materialized checkpoint.

        Also the replay scheduler's alignment query: which iterations can
        a work segment start after?
        """
        return self.backend.executions(block_id)

    def latest_execution_at_or_before(self, block_id: str,
                                      execution_index: int) -> int | None:
        """Largest memoized execution index <= ``execution_index`` (or None)."""
        return self.backend.latest_execution_at_or_before(
            block_id, execution_index)

    def blocks(self) -> list[str]:
        return self.backend.blocks()

    def records(self) -> list[CheckpointRecord]:
        return self.backend.records()

    # ------------------------------------------------------------------ #
    # Lifecycle: retention, garbage collection, footprint
    # ------------------------------------------------------------------ #
    def prune(self, policy, *, now: float | None = None):
        """Apply a :class:`~repro.storage.lifecycle.RetentionPolicy`.

        Manifest rows the policy rejects are deleted in one backend
        transaction (manifest-first); legacy per-execution payload files
        go with them, while shared content-addressed blobs wait for
        :meth:`gc` to confirm nothing else references them.
        """
        from .lifecycle import prune_store  # lazy: lifecycle imports us
        return prune_store(self, policy, now=now)

    def gc(self, *, grace_seconds: float = 0.0, dry_run: bool = False):
        """Sweep unreferenced payload blobs across this store's home.

        The mark phase spans *every* run under the home (blobs are shared
        across runs), so this is safe to call from any one store.
        """
        from .lifecycle import collect_garbage
        return collect_garbage(self.run_dir.parent,
                               grace_seconds=grace_seconds, dry_run=dry_run)

    def storage_stats(self):
        """Logical vs physical footprint of this store's home."""
        from .lifecycle import measure_storage
        return measure_storage(self.run_dir.parent)

    # ------------------------------------------------------------------ #
    # Aggregates (feed the storage-cost model)
    # ------------------------------------------------------------------ #
    def totals(self) -> ManifestTotals:
        """Checkpoint count and stored/raw byte sums, in one manifest scan."""
        return self.backend.totals()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Make every accepted write durable."""
        self.backend.flush()

    def close(self) -> None:
        """Release backend resources (reopens lazily if used again)."""
        self.backend.close()
