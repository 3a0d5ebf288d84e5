"""Delta checkpoints: chunk planning, recipe rows, GC safety, crash battery.

Four layers of coverage for the chunked (delta) storage plane:

* chunk planning — :func:`chunk_spans` edge cases: empty payloads,
  payloads smaller than one chunk, exact coverage, segment restarts;
* store semantics — epoch N+1 of a mostly-frozen model stores only the
  changed chunks; the knobs (``chunk_nbytes``, mode) can change between
  epochs of one run, and blobs older versions framed differently still
  dedup, because reads follow the manifest row and the frame id;
* failure reporting — a missing or corrupted chunk surfaces as a
  :class:`SerializationError` naming the exact chunk, never as silent
  wrong bytes;
* lifecycle + crashes — GC never collects a chunk any recipe still
  references, derived refcounts count recipe digests, and the
  :class:`faultutils.FaultInjector` battery covers crashes mid-recipe
  (between chunk blob writes) and mid-manifest-commit.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from faultutils import (LAYOUTS, InjectedCrash, assert_crash_consistent,
                        assert_no_orphans, assert_refcounts_exact,
                        crash_calls, open_layout_store)
from repro.exceptions import SerializationError, StorageError
from repro.storage.backends import CheckpointRecord
from repro.storage.checkpoint_store import RECIPE_LOCATION_PREFIX
from repro.storage.chunking import chunk_payload, chunk_spans
from repro.storage.compression import FRAME_MAGIC, compress, decompress
from repro.storage.serializer import (deserialize_checkpoint,
                                      payload_segments, restore_value,
                                      serialize_checkpoint, snapshot_value)
from repro.utils.hashing import digest_bytes

#: Small target so modest test payloads span many chunks.
CHUNK = 1024


@pytest.fixture(params=LAYOUTS)
def backend_name(request):
    return request.param


@pytest.fixture()
def home(tmp_path):
    return tmp_path


def open_store(home, backend_name, run="run", **kwargs):
    kwargs.setdefault("chunking", "fixed")
    kwargs.setdefault("chunk_nbytes", CHUNK)
    return open_layout_store(home / run, backend_name, **kwargs)


def model_snapshots(head_value: float, *, backbone_seed: int = 0,
                    backbone_size: int = 8192, head_size: int = 256):
    """A fine-tune-shaped checkpoint: big frozen backbone, small live head."""
    rng = np.random.default_rng(backbone_seed)
    backbone = rng.standard_normal(backbone_size).astype(np.float32)
    head = np.full(head_size, head_value, dtype=np.float32)
    return [snapshot_value("backbone", backbone),
            snapshot_value("head", head),
            snapshot_value("epoch", head_value)]


# --------------------------------------------------------------------------- #
# Chunk planning
# --------------------------------------------------------------------------- #
class TestChunkSpans:
    def test_empty_payload_has_no_chunks(self):
        assert chunk_spans(b"", mode="fixed", chunk_nbytes=CHUNK) == []
        assert chunk_spans(b"", mode="off", chunk_nbytes=CHUNK) == []

    def test_payload_smaller_than_one_chunk_is_one_span(self):
        data = b"tiny"
        for mode in ("fixed", "off"):
            assert chunk_spans(data, mode=mode, chunk_nbytes=CHUNK) \
                == [(0, len(data))]

    @pytest.mark.parametrize("mode", ["fixed", "off"])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   5 * CHUNK + 17])
    def test_spans_cover_payload_exactly_in_order(self, mode, n):
        data = np.random.default_rng(n).bytes(n)
        spans = chunk_spans(data, mode=mode, chunk_nbytes=CHUNK)
        offset = 0
        for start, length in spans:
            assert start == offset and length > 0
            offset += length
        assert offset == n

    def test_off_mode_is_one_whole_span(self):
        data = bytes(10 * CHUNK)
        assert chunk_spans(data, mode="off", chunk_nbytes=CHUNK) \
            == [(0, len(data))]

    def test_unknown_mode_raises(self):
        # Content-defined chunking is gone from the write side; recipes it
        # cut still read (see test_legacy_layouts).
        for mode in ("rolling", "cdc"):
            with pytest.raises(StorageError, match="chunking mode"):
                chunk_spans(b"x", mode=mode, chunk_nbytes=CHUNK)

    def test_fixed_restarts_at_segment_boundaries(self):
        # Two segments that are not multiples of the chunk size: boundaries
        # must restart at the segment edge, not run across it.
        data = bytes(3 * CHUNK + 100) + bytes(2 * CHUNK + 7)
        segments = [(0, 3 * CHUNK + 100), (3 * CHUNK + 100, 2 * CHUNK + 7)]
        spans = chunk_spans(data, mode="fixed", chunk_nbytes=CHUNK,
                            segments=segments)
        starts = [start for start, _ in spans]
        assert 3 * CHUNK + 100 in starts

    def test_tiny_segments_coalesce(self):
        # A run of sub-floor segments must merge instead of shattering the
        # payload into confetti-sized chunks.
        n = 64
        segments = [(i * 8, 8) for i in range(n)]
        data = bytes(n * 8)
        spans = chunk_spans(data, mode="fixed", chunk_nbytes=CHUNK,
                            segments=segments)
        # Merging stops once a group reaches the floor (chunk_nbytes // 4),
        # so every span except possibly the last is at least floor-sized —
        # never one blob per 8-byte segment.
        assert len(spans) < n // 4
        assert all(length >= CHUNK // 4 for _, length in spans[:-1])

    def test_non_contiguous_segments_raise(self):
        # Both segments are sub-floor, so a merge is attempted — and the
        # gap between them must be rejected, not silently spanned.
        with pytest.raises(StorageError, match="not contiguous"):
            chunk_spans(bytes(100), mode="fixed", chunk_nbytes=CHUNK,
                        segments=[(0, 8), (50, 50)])

    def test_serializer_segments_align_tensor_chunks(self):
        """An unchanged tensor chunks identically when a neighbour grows."""
        rng = np.random.default_rng(0)
        big = rng.integers(0, 256, size=4 * CHUNK, dtype=np.uint8)
        a = serialize_checkpoint([snapshot_value("pad", b"x" * 10),
                                  snapshot_value("frozen", big)]).data
        b = serialize_checkpoint([snapshot_value("pad", b"y" * 500),
                                  snapshot_value("frozen", big)]).data

        def digests(data):
            return {digest_bytes(view) for view in chunk_payload(
                data, mode="fixed", chunk_nbytes=CHUNK,
                segments=payload_segments(data))}

        shared = digests(a) & digests(b)
        # The frozen tensor's interior chunks dedup despite the shifted
        # pickle head in front of it.
        assert len(shared) >= (4 * CHUNK) // CHUNK - 1


# --------------------------------------------------------------------------- #
# Store semantics: delta writes, knob changes, cross-layout reads
# --------------------------------------------------------------------------- #
class TestDeltaWrites:
    @pytest.mark.parametrize("mode", ["fixed"])
    def test_epoch_deltas_store_only_changed_chunks(self, home, backend_name,
                                                    mode):
        store = open_store(home, backend_name, chunking=mode)
        objects = store.backend.object_store()
        first = store.put("train", 0, model_snapshots(0.0))
        first_growth = objects.stats().total_nbytes
        second = store.put("train", 1, model_snapshots(1.0))
        second_growth = objects.stats().total_nbytes - first_growth
        assert first.is_chunked() and second.is_chunked()
        assert str(second.path).startswith(RECIPE_LOCATION_PREFIX)
        # The frozen backbone dedups: epoch 1 physically stores well under
        # half of what epoch 0 did (only head + epoch-counter chunks are
        # new); the row's stored_nbytes still reports the full logical
        # footprint of the blobs its recipe references.
        assert second_growth < first_growth / 2
        assert second.stored_nbytes >= second_growth
        shared = set(first.recipe_digests()) & set(second.recipe_digests())
        assert shared

    def test_roundtrip_restores_values(self, home, backend_name):
        store = open_store(home, backend_name)
        store.put("train", 0, model_snapshots(3.0))
        restored = {s.name: s for s in store.get("train", 0)}
        np.testing.assert_array_equal(
            restored["head"].payload,
            np.full(256, 3.0, dtype=np.float32))
        assert restored["epoch"].payload == 3.0

    def test_chunk_size_knob_can_change_between_epochs(self, home,
                                                       backend_name):
        """Reads follow the manifest row, not the store's current knob."""
        store = open_store(home, backend_name, chunk_nbytes=CHUNK)
        store.put("train", 0, model_snapshots(0.0))
        store.close()
        store = open_store(home, backend_name, chunk_nbytes=4 * CHUNK)
        store.put("train", 1, model_snapshots(1.0))
        for index in (0, 1):
            restored = {s.name: s for s in store.get("train", index)}
            assert restored["epoch"].payload == float(index)

    def test_any_store_setting_replays_any_layout(self, home, backend_name):
        recorder = open_store(home, backend_name, chunking="fixed")
        recorder.put("train", 0, model_snapshots(0.0))
        recorder.close()
        legacy = open_store(home, backend_name, chunking="off")
        legacy.put("train", 1, model_snapshots(1.0))
        record = legacy.backend.lookup("train", 1)
        assert not record.is_chunked()
        legacy.close()
        # A chunking-off store reads the chunked row; a fixed store reads
        # both the chunked and the whole row.
        reader = open_store(home, backend_name, chunking="off")
        assert {s.name: s.payload for s in reader.get("train", 0)}[
            "epoch"] == 0.0
        reader.close()
        reader = open_store(home, backend_name, chunking="fixed")
        for index in (0, 1):
            assert {s.name: s.payload for s in reader.get("train", index)}[
                "epoch"] == float(index)

    def test_uncompressed_store_frames_chunks_raw(self, home, backend_name):
        """Chunk digests address raw bytes, so dedup crosses framings.

        Older versions could frame every chunk raw (``codec="raw"``); a
        store today finds those blobs already present and writes nothing.
        """
        plain = open_store(home, backend_name)
        first = plain.put("train", 0, model_snapshots(0.0))
        objects = plain.backend.object_store()
        for digest in set(first.recipe_digests()):
            blob = objects.blob_path(digest)
            blob.write_bytes(FRAME_MAGIC + b"\x00"
                             + bytes(decompress(blob.read_bytes())))
        held = objects.stats()
        gzipped = open_store(home, backend_name, run="run-b")
        second = gzipped.put("train", 0, model_snapshots(0.0))
        assert first.recipe_digests() == second.recipe_digests()
        assert objects.stats().total_nbytes == held.total_nbytes
        assert second.stored_nbytes == sum(
            objects.blob_path(digest).stat().st_size
            for digest in second.recipe_digests())
        restored = {s.name: s for s in gzipped.get("train", 0)}
        assert restored["epoch"].payload == 0.0

    def test_uneven_recipe_reads_on_every_layout(self, home, backend_name):
        """A recipe cut at uneven, content-defined lengths — as the "cdc"
        chunker older versions shipped wrote them — reads bit-exactly, and
        its chunks count as references, on every layout."""
        store = open_store(home, backend_name)
        payload = serialize_checkpoint(model_snapshots(2.0)).data
        cuts = [0, 37, 5000, 5011, 20000, len(payload)]
        chunks = [payload[a:b] for a, b in zip(cuts, cuts[1:])]
        objects = store.backend.object_store()
        for chunk in chunks:
            objects.put(digest_bytes(chunk), compress(chunk).data)
        digests = [digest_bytes(chunk) for chunk in chunks]
        store.index_records([CheckpointRecord(
            block_id="train", execution_index=0,
            path=Path(f"{RECIPE_LOCATION_PREFIX}{len(chunks)}"),
            raw_nbytes=len(payload), stored_nbytes=sum(
                objects.blob_path(d).stat().st_size for d in digests),
            digest=digest_bytes(payload), serialize_seconds=0.0,
            write_seconds=0.0, created_at=time.time(),
            recipe=",".join(digests))])
        assert store.backend.referenced_digests() == dict.fromkeys(
            digests, 1)
        restored = {s.name: s for s in store.get("train", 0)}
        assert restored["epoch"].payload == 2.0
        assert (serialize_checkpoint(store.get("train", 0)).data
                == serialize_checkpoint(deserialize_checkpoint(payload)).data)
        assert_no_orphans(home)

    def test_empty_snapshot_list_roundtrips(self, home, backend_name):
        store = open_store(home, backend_name)
        record = store.put("train", 0, [])
        assert record.is_chunked()
        assert store.get("train", 0) == []


# --------------------------------------------------------------------------- #
# Failure reporting: missing and corrupted chunks
# --------------------------------------------------------------------------- #
class TestChunkFailures:
    def test_missing_chunk_names_the_chunk(self, home, backend_name):
        store = open_store(home, backend_name)
        record = store.put("train", 0, model_snapshots(0.0))
        victim = record.recipe_digests()[1]
        store.backend.object_store().delete([victim])
        with pytest.raises(SerializationError,
                           match=r"chunk 2/\d+ is missing"):
            store.get("train", 0)

    def test_corrupted_chunk_names_the_chunk(self, home):
        store = open_store(home, "local")
        record = store.put("train", 0, model_snapshots(0.0))
        victim = record.recipe_digests()[0]
        objects = store.backend.object_store()
        blob_path = objects.blob_path(victim)
        blob = bytearray(blob_path.read_bytes())
        blob[7] ^= 0xFF  # flip one bit inside the codec stream
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(SerializationError,
                           match=r"chunk 1/\d+ .*(corrupt|failed to decode)"):
            store.get("train", 0)

    def test_swapped_chunk_content_fails_digest_check(self, home):
        """A decodable-but-wrong blob is caught by the per-chunk digest."""
        store = open_store(home, "local")
        record = store.put("train", 0, model_snapshots(0.0))
        digests = record.recipe_digests()
        objects = store.backend.object_store()
        # Overwrite chunk 0's blob with chunk 1's (valid frame, wrong bytes).
        objects.blob_path(digests[0]).write_bytes(
            objects.blob_path(digests[1]).read_bytes())
        with pytest.raises(SerializationError, match=r"chunk 1/\d+ is corrupt"):
            store.get("train", 0)


# --------------------------------------------------------------------------- #
# Delta restore: a read reuses the previous read's verified chunks
# --------------------------------------------------------------------------- #
def spy_reads(monkeypatch, store) -> list[str]:
    """Record every digest ``store`` reads from its object store."""
    objects = store.backend.object_store()
    reads: list[str] = []
    real_get = objects.get

    def get(digest):
        reads.append(digest)
        return real_get(digest)

    monkeypatch.setattr(objects, "get", get)
    return reads


def payload_bytes(snapshots) -> bytes:
    return serialize_checkpoint(snapshots).data


class TestDeltaRestore:
    def test_neighbour_get_reads_only_new_chunks(self, home, backend_name,
                                                 monkeypatch):
        writer = open_store(home, backend_name)
        first = writer.put("train", 0, model_snapshots(0.0))
        second = writer.put("train", 1, model_snapshots(1.0))
        writer.close()
        reader = open_store(home, backend_name)
        reads = spy_reads(monkeypatch, reader)
        restored = [reader.get("train", 0)]
        assert sorted(reads) == sorted(set(first.recipe_digests()))
        reads.clear()
        restored.append(reader.get("train", 1))
        new = set(second.recipe_digests()) - set(first.recipe_digests())
        assert new and sorted(reads) == sorted(new)
        # Bit-identical to what a store with nothing to reuse returns.
        for index, snapshots in enumerate(restored):
            fresh = open_store(home, backend_name).get("train", index)
            assert payload_bytes(snapshots) == payload_bytes(fresh)

    def test_full_payload_digest_checked_on_every_get(self, home,
                                                      monkeypatch):
        import repro.storage.checkpoint_store as module
        store = open_store(home, "local")
        store.put("train", 0, model_snapshots(0.0))
        store.get("train", 0)
        hashed: list[int] = []
        real = module.digest_bytes

        def counting(data):
            hashed.append(len(data))
            return real(data)

        monkeypatch.setattr(module, "digest_bytes", counting)
        store.get("train", 0)  # every chunk reused: one hash, the payload's
        assert hashed == [store.describe("train", 0).raw_nbytes]
        # A wrong full-payload digest fails the read even though every
        # chunk is reused.
        describe = store.describe
        monkeypatch.setattr(store, "describe", lambda *args, **kwargs:
                            replace(describe(*args, **kwargs),
                                    digest="0" * 64))
        with pytest.raises(SerializationError,
                           match="does not match its manifest digest"):
            store.get("train", 0)

    def test_mutating_a_restored_value_does_not_reach_a_later_restore(
            self, home, backend_name):
        store = open_store(home, backend_name)
        store.put("train", 0, model_snapshots(2.0) + [
            snapshot_value("state", {"w": np.ones(512, np.float32)})])
        expected = payload_bytes(store.get("train", 0))
        for snapshot in store.get("train", 0):
            value = restore_value(snapshot)
            if isinstance(value, np.ndarray):
                value += 1.0
            elif isinstance(value, dict):
                value["w"] += 1.0
        assert payload_bytes(store.get("train", 0)) == expected

    def test_blob_corrupted_after_a_get_is_reported_by_a_fresh_store(
            self, home, backend_name):
        store = open_store(home, backend_name)
        record = store.put("train", 0, model_snapshots(0.0))
        store.get("train", 0)
        victim = record.recipe_digests()[0]
        objects = store.backend.object_store()
        blob = bytearray(objects.get(victim))
        blob[-1] ^= 0xFF
        objects.delete([victim])
        objects.put(victim, bytes(blob))
        with pytest.raises(SerializationError,
                           match=r"chunk 1/\d+ .*(corrupt|failed to decode)"):
            open_store(home, backend_name).get("train", 0)

    def test_manifest_audit_reads_every_blob_each_call(self, home,
                                                       backend_name,
                                                       monkeypatch):
        from faultutils import assert_manifest_closed
        store = open_store(home, backend_name)
        records = [store.put("train", index, model_snapshots(float(index)))
                   for index in range(3)]
        for index in range(3):
            store.get("train", index)
        reads = spy_reads(monkeypatch, store)
        per_call = sum(len(set(r.recipe_digests())) for r in records)
        for calls in (1, 2):
            assert assert_manifest_closed(store) == 3
            assert len(reads) == calls * per_call


# --------------------------------------------------------------------------- #
# Lifecycle: GC never collects a recipe-referenced chunk
# --------------------------------------------------------------------------- #
class TestRecipeLifecycle:
    def test_gc_keeps_chunks_any_recipe_references(self, home, backend_name):
        from repro.storage.lifecycle import RetentionPolicy, prune_store
        store = open_store(home, backend_name)
        for index in range(3):
            store.put("train", index, model_snapshots(float(index)))
        prune_store(store, RetentionPolicy(keep_last_n=1))
        report = store.gc(grace_seconds=0.0)
        assert report.swept_objects >= 1
        # The surviving row still reads perfectly after the sweep.
        restored = {s.name: s for s in store.get("train", 2)}
        assert restored["epoch"].payload == 2.0
        assert_no_orphans(home)

    def test_cross_run_shared_chunks_survive_one_runs_retirement(
            self, home, backend_name):
        from repro.storage.lifecycle import retire_run
        a = open_store(home, backend_name, run="run-a")
        b = open_store(home, backend_name, run="run-b")
        a.put("train", 0, model_snapshots(0.0))
        b.put("train", 0, model_snapshots(0.0))  # same chunks, second run
        retire_run(a)
        a.gc(grace_seconds=0.0)
        a.close()
        restored = {s.name: s for s in b.get("train", 0)}
        assert restored["epoch"].payload == 0.0

    def test_derived_refcounts_count_recipe_digests(self, home, backend_name):
        store = open_store(home, backend_name)
        store.put("train", 0, model_snapshots(0.0))
        store.put("train", 1, model_snapshots(1.0))
        store.flush()
        assert_refcounts_exact(home, [store])


# --------------------------------------------------------------------------- #
# Crash battery: mid-recipe-commit and mid-manifest-commit deaths
# --------------------------------------------------------------------------- #
class TestChunkCrashConsistency:
    @pytest.mark.parametrize("on_call", [1, 3])
    def test_crash_between_chunk_blob_writes(self, home, backend_name,
                                             on_call):
        """Dying mid-recipe strands blobs but never a dangling row."""
        store = open_store(home, backend_name)
        store.put("train", 0, model_snapshots(0.0))
        objects = store.backend.object_store()
        # A fresh backbone: every chunk of epoch 1 is new, so the recipe
        # needs many blob writes and the injected crash lands mid-recipe.
        with crash_calls(objects, "put", on_call=on_call):
            with pytest.raises(InjectedCrash):
                store.put("train", 1, model_snapshots(1.0, backbone_seed=1))
        store.close()
        reopened = open_store(home, backend_name)
        assert not reopened.contains("train", 1)
        assert_crash_consistent(reopened, home)

    def test_crash_after_blobs_before_manifest_commit(self, home,
                                                      backend_name):
        """The spool ordering: all blobs land, the row never commits."""
        store = open_store(home, backend_name)
        store.put("train", 0, model_snapshots(0.0))
        record = store.write_payload("train", 1,
                                     serialize_checkpoint(
                                         model_snapshots(1.0)))
        with crash_calls(store.backend, "index_many"):
            with pytest.raises(InjectedCrash):
                store.index_records([record])
        store.close()
        reopened = open_store(home, backend_name)
        assert not reopened.contains("train", 1)
        # The stranded epoch-1 chunks are unreferenced orphans; one sweep
        # reclaims them without touching epoch 0's referenced chunks.
        assert_crash_consistent(reopened, home)
        restored = {s.name: s for s in reopened.get("train", 0)}
        assert restored["epoch"].payload == 0.0

    def test_crash_mid_gc_sweep_with_recipes(self, home):
        store = open_store(home, "local")
        from repro.storage.lifecycle import RetentionPolicy, prune_store
        for index in range(3):
            store.put("train", index, model_snapshots(float(index)))
        prune_store(store, RetentionPolicy(keep_last_n=1))
        objects = store.backend.object_store()
        with crash_calls(objects, "_delete_blob", on_call=2):
            with pytest.raises(InjectedCrash):
                store.gc(grace_seconds=0.0)
        store.close()
        reopened = open_store(home, "local")
        assert_crash_consistent(reopened, home)
        restored = {s.name: s for s in reopened.get("train", 2)}
        assert restored["epoch"].payload == 2.0
