"""The content probe of ``repro.storage.compression.compress``.

``compress`` samples its input and frames incompressible bytes ``raw``
instead of running gzip on them.  Covered here:

* round trip — ``decompress(compress(x)) == x`` for both frames it writes
  and every level, at sizes on both sides of the probe minimum;
* determinism — the frame is a pure function of (bytes, codec, level), in
  this process and in a fresh one: the whole-payload path content-addresses
  the *encoded* bytes;
* decision — random and float tensor bytes go raw; zeros, tiled patterns
  and low-entropy integers encode exactly as gzip alone would;
* the store — a checkpoint mixing both kinds of content yields both kinds
  of frame, reads back bit-exact and costs about what gzip-everything did;
* compatibility — homes written before the probe existed read through it,
  homes written with it read under either chunking setting, and the spool
  writes the same blobs as an inline ``put``.
"""

from __future__ import annotations

import gzip
import json
import lzma
import os
import subprocess
import sys
import textwrap
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.storage import compression
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compression import (CODEC_IDS, CODEC_NAMES, FRAME_MAGIC,
                                       PROBE_MIN_NBYTES, codec_of, compress,
                                       decompress)
from repro.storage.serializer import serialize_checkpoint, snapshot_value
from repro.storage.spool import AsyncSpool
from repro.utils.hashing import digest_bytes

SRC = Path(__file__).resolve().parents[2] / "src"

SIZES = (0, 1, PROBE_MIN_NBYTES - 1, PROBE_MIN_NBYTES, PROBE_MIN_NBYTES + 1,
         3 * PROBE_MIN_NBYTES + 17)

LEVELS = (None, 0, 1, 6, 9)


def content(kind: str, nbytes: int, seed: int = 0) -> bytes:
    """``nbytes`` of one kind of checkpoint content."""
    rng = np.random.default_rng(seed)
    if kind == "urandom":
        data = rng.bytes(nbytes)
    elif kind == "float32":
        data = rng.standard_normal(nbytes // 4 + 1).astype(np.float32).tobytes()
    elif kind == "zeros":
        data = bytes(nbytes)
    elif kind == "tiled":
        data = (rng.bytes(48) + b"layer.weight") * (nbytes // 60 + 1)
    elif kind == "small_ints":
        data = rng.integers(0, 50, nbytes // 8 + 1).tobytes()
    else:
        raise AssertionError(kind)
    return data[:nbytes]


INCOMPRESSIBLE = ("urandom", "float32")
COMPRESSIBLE = ("zeros", "tiled", "small_ints")


def unprobed(data: bytes, level=None) -> bytes:
    """The frame gzip alone writes: what ``compress`` did before."""
    level = 6 if level is None else max(1, level)
    return (FRAME_MAGIC + bytes((CODEC_IDS["gzip"],))
            + gzip.compress(data, compresslevel=level, mtime=0))


# --------------------------------------------------------------------------- #
# (a) round trip
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @given(codec=st.sampled_from(sorted(CODEC_NAMES)),
           level=st.sampled_from(LEVELS),
           kind=st.sampled_from(INCOMPRESSIBLE + COMPRESSIBLE),
           nbytes=st.sampled_from(SIZES),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=120, deadline=None)
    def test_decompress_inverts_compress(self, codec, level, kind, nbytes,
                                         seed):
        data = content(kind, nbytes, seed)
        result = compress(data, level=level, codec=codec)
        assert decompress(result.data) == data
        assert result.raw_nbytes == len(data)
        assert result.compressed_nbytes == len(result.data)
        assert result.codec == codec_of(result.data)

    @given(st.binary(max_size=512), st.integers(0, 96))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_tiled_across_the_minimum(self, block, repeats):
        data = block * repeats * (PROBE_MIN_NBYTES // 2048)
        assert decompress(compress(data).data) == data

    def test_bytes_like_input_needs_no_copy_by_the_caller(self):
        data = content("float32", 4 * PROBE_MIN_NBYTES)
        view = memoryview(data)[128:-128]
        assert compress(view).data == compress(bytes(view)).data
        assert decompress(compress(view).data) == view


# --------------------------------------------------------------------------- #
# (b) determinism
# --------------------------------------------------------------------------- #
def frame_digests() -> dict[str, str]:
    """Digest of the frame of every (kind, size, codec) of a fixed corpus."""
    return {
        f"{kind}/{nbytes}/{codec}": digest_bytes(
            compress(content(kind, nbytes, seed=7), codec=codec).data)
        for kind in INCOMPRESSIBLE + COMPRESSIBLE
        for nbytes in (PROBE_MIN_NBYTES - 1, 5 * PROBE_MIN_NBYTES)
        for codec in sorted(CODEC_NAMES)}


class TestDeterminism:
    def test_identical_input_gives_identical_frames(self):
        assert frame_digests() == frame_digests()

    def test_frames_are_identical_from_a_fresh_process(self):
        script = textwrap.dedent(f"""
            import json, sys
            sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]
            from test_content_probe import frame_digests
            print(json.dumps(frame_digests()))
        """)
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True).stdout
        assert json.loads(output) == frame_digests()


# --------------------------------------------------------------------------- #
# (c) decision
# --------------------------------------------------------------------------- #
class TestDecision:
    @pytest.mark.parametrize("codec", ["gzip"])
    @pytest.mark.parametrize("kind", INCOMPRESSIBLE)
    @pytest.mark.parametrize("nbytes", [64 * 1024, 256 * 1024 + 13])
    def test_incompressible_bytes_are_framed_raw(self, codec, kind, nbytes):
        data = content(kind, nbytes)
        result = compress(data, codec=codec)
        assert result.codec == "raw" == codec_of(result.data)
        assert result.data == FRAME_MAGIC + b"\x00" + data

    def test_os_urandom_is_framed_raw(self):
        assert compress(os.urandom(64 * 1024)).codec == "raw"

    @pytest.mark.parametrize("codec", ["gzip"])
    @pytest.mark.parametrize("kind", COMPRESSIBLE)
    def test_compressible_bytes_encode_as_the_codec_alone_would(self, codec,
                                                                kind):
        data = content(kind, 64 * 1024)
        result = compress(data, codec=codec, level=1)
        assert result.codec == codec
        assert result.data == unprobed(data, level=1)

    @pytest.mark.parametrize("kind", INCOMPRESSIBLE)
    def test_inputs_under_the_minimum_always_run_the_codec(self, kind):
        data = content(kind, PROBE_MIN_NBYTES - 1)
        assert compress(data).data == unprobed(data)

    @pytest.mark.parametrize("offset", range(0, 96 * 1024 + 1, 12 * 1024))
    def test_a_compressible_quarter_keeps_the_codec_wherever_it_sits(
            self, offset):
        """Windows are spaced closer than a quarter of the input is long."""
        data = bytearray(content("float32", 128 * 1024))
        data[offset:offset + 32 * 1024] = bytes(32 * 1024)
        assert compress(bytes(data)).codec == "gzip"

    def test_raw_still_means_never_compress(self):
        data = content("zeros", 64 * 1024)
        assert compress(data, codec="raw").data == FRAME_MAGIC + b"\x00" + data

    @pytest.mark.parametrize("codec", ["zlib", "lzma", "auto"])
    def test_only_gzip_and_raw_frames_are_written(self, codec):
        with pytest.raises(StorageError, match="compress writes codecs"):
            compress(b"payload", codec=codec)


# --------------------------------------------------------------------------- #
# (d) a mixed checkpoint through the store
# --------------------------------------------------------------------------- #
def mixed_snapshots(seed: int = 0):
    """A random frozen backbone and a zero-initialised momentum buffer."""
    rng = np.random.default_rng(seed)
    return [snapshot_value("backbone", rng.standard_normal(
                1 << 17).astype(np.float32)),
            snapshot_value("momentum", np.zeros(1 << 17, dtype=np.float32)),
            snapshot_value("step", seed)]


def blobs(store: CheckpointStore) -> dict[str, bytes]:
    objects = store.backend.object_store()
    return {digest: bytes(objects.get(digest)) for digest in objects.digests()}


def same_payload(store: CheckpointStore, index: int, snapshots) -> bool:
    """Whether ``get`` returns ``snapshots`` bit for bit."""
    def bits(snapshot):
        value = snapshot.payload
        return (snapshot.name, snapshot.kind,
                value.tobytes() if isinstance(value, np.ndarray) else value)
    return ([bits(snapshot) for snapshot in store.get("train", index)]
            == [bits(snapshot) for snapshot in snapshots])


class TestMixedCheckpoint:
    def test_both_frame_kinds_bit_exact_and_near_gzip_size(self, tmp_path,
                                                           monkeypatch):
        store = CheckpointStore(tmp_path / "probed" / "run", chunking="fixed",
                                chunk_nbytes=64 * 1024)
        record = store.put("train", 0, mixed_snapshots())
        frames = [codec_of(blob) for blob in blobs(store).values()]
        assert set(frames) == {"raw", "gzip"}
        assert same_payload(store, 0, mixed_snapshots())

        monkeypatch.setattr(compression, "PROBE_MIN_NBYTES", 1 << 62)
        everything = CheckpointStore(tmp_path / "gzipped" / "run",
                                     chunking="fixed", chunk_nbytes=64 * 1024)
        gzipped = everything.put("train", 0, mixed_snapshots())
        assert {codec_of(blob) for blob in blobs(everything).values()} == {
            "gzip"}
        assert record.stored_nbytes <= 1.10 * gzipped.stored_nbytes
        assert record.digest == gzipped.digest
        assert record.recipe == gzipped.recipe    # addresses are of raw bytes


# --------------------------------------------------------------------------- #
# (e) compatibility
# --------------------------------------------------------------------------- #
class TestCompatibility:
    @pytest.mark.parametrize("chunking", ["off", "fixed"])
    def test_homes_written_before_the_probe_read_through_it(
            self, tmp_path, monkeypatch, chunking):
        with monkeypatch.context() as patch:
            patch.setattr(compression, "PROBE_MIN_NBYTES", 1 << 62)
            old = CheckpointStore(tmp_path / "run", chunking=chunking)
            old.put("train", 0, mixed_snapshots())
            assert {codec_of(blob) for blob in blobs(old).values()} == {"gzip"}
            old.close()
        store = CheckpointStore(tmp_path / "run", chunking=chunking)
        assert same_payload(store, 0, mixed_snapshots())
        # New checkpoints land beside the old blobs and both stay readable.
        store.put("train", 1, mixed_snapshots(seed=1))
        assert same_payload(store, 0, mixed_snapshots())
        assert same_payload(store, 1, mixed_snapshots(seed=1))

    def test_bare_gzip_payloads_from_pre_frame_runs_still_read(self,
                                                               tmp_path):
        store = CheckpointStore(tmp_path / "run", chunking="off")
        serialized = serialize_checkpoint(mixed_snapshots())
        bare = gzip.compress(serialized.data, mtime=0)
        store.index_records([store.write_encoded(
            "train", 0, bare, serialized.nbytes, 0.0)])
        assert same_payload(store, 0, mixed_snapshots())

    @pytest.mark.parametrize("chunking", ["off", "fixed"])
    def test_a_home_written_with_the_probe_reads_under_every_setting(
            self, tmp_path, chunking):
        for written in ("off", "fixed"):
            writer = CheckpointStore(tmp_path / written, chunking=written)
            writer.put("train", 0, mixed_snapshots())
            writer.close()
            reader = CheckpointStore(tmp_path / written, chunking=chunking)
            assert same_payload(reader, 0, mixed_snapshots())
            reader.close()

    @pytest.mark.parametrize("chunking", ["off", "fixed"])
    @pytest.mark.parametrize("frame", ["raw", "zlib", "lzma"])
    def test_blobs_older_versions_framed_read_under_every_setting(
            self, tmp_path, frame, chunking):
        """Older versions could frame every blob raw, zlib or lzma (frame
        ids 0, 2, 3); reads dispatch on the frame id, whatever the store's
        own setting."""
        def reframe(data) -> bytes:
            body = {"raw": bytes, "zlib": zlib.compress,
                    "lzma": lambda d: lzma.compress(d, preset=1)}[frame](
                        data)
            return FRAME_MAGIC + bytes((CODEC_IDS[frame],)) + body

        for written in ("off", "fixed"):
            writer = CheckpointStore(tmp_path / written, chunking=written)
            record = writer.put("train", 0, mixed_snapshots())
            objects = writer.backend.object_store()
            if record.is_chunked():
                for digest in set(record.recipe_digests()):
                    objects.blob_path(digest).write_bytes(reframe(
                        decompress(objects.get(digest))))
            else:
                # Whole rows address their stored bytes: a reframed blob
                # is a new blob under a new row digest.
                stored = reframe(decompress(objects.get(record.digest)))
                digest = digest_bytes(stored)
                writer.index_records([replace(
                    record, path=Path(objects.put(digest, stored)),
                    stored_nbytes=len(stored), digest=digest,
                    payload_digest=digest)])
            assert {codec_of(objects.get(digest)) for digest
                    in writer.backend.referenced_digests()} == {frame}
            writer.close()
            reader = CheckpointStore(tmp_path / written, chunking=chunking)
            assert same_payload(reader, 0, mixed_snapshots())
            reader.close()

    @pytest.mark.parametrize("chunking", ["off", "fixed"])
    def test_spool_and_inline_put_write_identical_blobs(self, tmp_path,
                                                        chunking):
        checkpoints = [mixed_snapshots(), [snapshot_value(
            "backbone", np.frombuffer(content("float32", 1 << 18),
                                      dtype=np.float32))]]
        written = {}
        for path in ("spool", "inline"):
            store = CheckpointStore(tmp_path / path / "run",
                                    chunking=chunking)
            if path == "spool":
                with AsyncSpool(store, workers=1) as spool:
                    for index, snapshots in enumerate(checkpoints):
                        spool.submit("train", index, snapshots)
                assert not spool.stats.errors
            else:
                for index, snapshots in enumerate(checkpoints):
                    store.put("train", index, snapshots)
            written[path] = blobs(store)
            store.close()
        assert written["spool"] == written["inline"]
        assert {codec_of(blob) for blob in written["spool"].values()} == {
            "raw", "gzip"}
