"""Storage lifecycle: retention, GC, crash consistency under fault injection.

Three layers of coverage:

* policy semantics — what :func:`plan_retention` keeps and prunes, rule
  by rule, including the two unconditional guardrails (min-age, the
  per-block bridge anchor);
* lifecycle mechanics — prune → gc ordering frees exactly the
  unreferenced blobs, across backends, across runs sharing a home, and
  from the background spool hook;
* crash consistency — a :class:`faultutils.FaultInjector` kills the
  process mid-``gc`` sweep and mid-``index_many`` commit; a reopened
  store must show no dangling manifest rows and, after one sweep, no
  orphaned payloads.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from faultutils import (LAYOUTS, InjectedCrash, assert_crash_consistent,
                        assert_manifest_closed, assert_no_orphans,
                        crash_calls, open_layout_store, put_legacy)
from repro.exceptions import StorageError
from repro.storage.lifecycle import (LifecycleManager, RetentionPolicy,
                                     collect_garbage, measure_storage,
                                     plan_retention, prune_store, retire_run)
from repro.storage.serializer import snapshot_value
from repro.storage.spool import AsyncSpool

BACKENDS = LAYOUTS


def make_snapshots(value: float = 1.0, size: int = 64):
    return [snapshot_value("weights", np.full(size, value, dtype=np.float32)),
            snapshot_value("epoch", int(value))]


def open_store(home, backend_name, run="run"):
    return open_layout_store(home / run, backend_name)


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    return request.param


@pytest.fixture()
def home(tmp_path):
    return tmp_path


# --------------------------------------------------------------------------- #
# RetentionPolicy semantics
# --------------------------------------------------------------------------- #
class TestRetentionPolicy:
    def test_inactive_policy_prunes_nothing(self, home, backend_name):
        store = open_store(home, backend_name)
        for index in range(4):
            store.put("train", index, make_snapshots(float(index)))
        assert plan_retention(store, RetentionPolicy()) == []
        report = prune_store(store, RetentionPolicy())
        assert report.pruned == 0 and report.kept == 4

    def test_keep_last_n_per_block(self, home, backend_name):
        store = open_store(home, backend_name)
        for block in ("train", "eval"):
            for index in range(5):
                store.put(block, index, make_snapshots(float(index)))
        report = prune_store(store, RetentionPolicy(keep_last_n=2))
        assert report.pruned == 6
        assert store.executions("train") == [3, 4]
        assert store.executions("eval") == [3, 4]

    def test_min_age_protects_young_checkpoints(self, home, backend_name):
        store = open_store(home, backend_name)
        for index in range(4):
            store.put("train", index, make_snapshots(float(index)))
        policy = RetentionPolicy(keep_last_n=1, min_age_seconds=3600)
        assert plan_retention(store, policy) == []
        # The same rows prune once "now" has moved past the grace.
        future = time.time() + 7200
        plan = plan_retention(store, policy, now=future)
        assert [r.execution_index for r in plan] == [0, 1, 2]

    def test_newest_checkpoint_per_block_always_survives(self, home,
                                                         backend_name):
        store = open_store(home, backend_name)
        for index in range(3):
            store.put("train", index, make_snapshots(float(index)))
        # A max_total_bytes of zero asks to drop everything; the bridge
        # anchor (execution 2) must survive anyway.
        report = prune_store(store, RetentionPolicy(max_total_bytes=0))
        assert store.executions("train") == [2]
        assert report.pruned == 2

    def test_max_total_bytes_prunes_oldest_first(self, home, backend_name):
        store = open_store(home, backend_name)
        records = [store.put("train", index, make_snapshots(float(index)))
                   for index in range(4)]
        keep_two = sum(r.stored_nbytes for r in records[-2:])
        prune_store(store, RetentionPolicy(max_total_bytes=keep_two))
        assert store.executions("train") == [2, 3]

    def test_keep_aligned_only_drops_unaligned(self, home, backend_name):
        store = open_store(home, backend_name)
        # Two loop blocks; only iterations 0 and 2 are aligned (restorable
        # across both), and 1_000_001 is a composite (repeat) index.
        for index in (0, 1, 2, 1_000_001):
            store.put("a", index, make_snapshots(float(index % 97)))
        for index in (0, 2, 3):
            store.put("b", index, make_snapshots(float(index % 89) + 0.5))
        store.set_metadata("main_loop_total", 4)
        store.set_metadata("loop_blocks", ["a", "b"])
        prune_store(store, RetentionPolicy(keep_aligned_only=True))
        # Unaligned rows pruned; the newest row per block survives even
        # when unaligned (anchor guardrail: a[1_000_001], b[3]).
        assert store.executions("a") == [0, 2, 1_000_001]
        assert store.executions("b") == [0, 2, 3]

    def test_validate_rejects_bad_values(self):
        with pytest.raises(StorageError):
            RetentionPolicy(keep_last_n=0).validate()
        with pytest.raises(StorageError):
            RetentionPolicy(max_total_bytes=-1).validate()
        with pytest.raises(StorageError):
            RetentionPolicy(min_age_seconds=-0.1).validate()

    def test_roundtrip_through_dict(self):
        policy = RetentionPolicy(keep_last_n=3, keep_aligned_only=True,
                                 max_total_bytes=1 << 20, min_age_seconds=5)
        assert RetentionPolicy.from_dict(policy.to_dict()) == policy


# --------------------------------------------------------------------------- #
# Prune + GC mechanics
# --------------------------------------------------------------------------- #
class TestPruneAndGC:
    def test_prune_then_gc_frees_unshared_blobs(self, home, backend_name):
        store = open_store(home, backend_name)
        for index in range(5):
            store.put("train", index, make_snapshots(float(index)))
        before = measure_storage(home)
        assert before.physical_objects == 5
        prune_store(store, RetentionPolicy(keep_last_n=2))
        # Manifest-first: rows are gone but blobs wait for the sweep.
        assert store.totals().checkpoints == 2
        report = collect_garbage(home)
        assert report.swept_objects == 3
        assert report.swept_nbytes > 0
        after = measure_storage(home)
        assert after.physical_objects == 2
        assert_crash_consistent(store, home)

    def test_storage_stats_count_legacy_files_and_blobs(self, home,
                                                        backend_name):
        """Physical bytes are what the home holds: blobs plus the legacy
        per-execution files older versions wrote beside them."""
        store = open_store(home, backend_name)
        blob = store.put("train", 0, make_snapshots(1.0))
        legacy = [put_legacy(store, "train", index, make_snapshots(1.0))
                  for index in (1, 2)]
        stats = measure_storage(home)
        assert stats.physical_objects == 3
        assert stats.physical_nbytes == blob.stored_nbytes + sum(
            record.path.stat().st_size for record in legacy)
        # Two identical payloads as legacy files cost two copies; nothing
        # is shared, so logical equals physical.
        assert stats.legacy_nbytes == sum(r.stored_nbytes for r in legacy)
        assert stats.dedup_ratio == 1.0
        # A second run referencing the same blob doubles logical bytes only.
        open_store(home, backend_name, "run-b").put(
            "train", 0, make_snapshots(1.0))
        shared = measure_storage(home)
        assert shared.physical_nbytes == stats.physical_nbytes
        assert shared.dedup_ratio == pytest.approx(
            (stats.logical_nbytes + blob.stored_nbytes)
            / stats.physical_nbytes)

    def test_gc_mark_pass_writes_nothing_into_run_dirs(self, home,
                                                        backend_name):
        import shutil
        store = open_store(home, backend_name)
        store.save_source("train.py", "print('train')\n")
        store.put("train", 0, make_snapshots())
        store.close()
        run_dir = home / "run"
        shutil.rmtree(run_dir / "source")
        collect_garbage(home, grace_seconds=0.0)
        measure_storage(home)
        created = {path.relative_to(run_dir).parts[-1]
                   for path in run_dir.rglob("*")}
        assert "source" not in created
        assert "checkpoints" not in created

    def test_gc_keeps_blobs_referenced_by_other_runs(self, home,
                                                     backend_name):
        # Two runs under one home with identical payloads: retiring one
        # run must not free blobs the other still references.
        store_a = open_store(home, backend_name, "run-a")
        store_b = open_store(home, backend_name, "run-b")
        for index in range(3):
            store_a.put("train", index, make_snapshots(float(index)))
            store_b.put("train", index, make_snapshots(float(index)))
        assert measure_storage(home).physical_objects == 3  # deduped
        retire_run(store_a)
        report = collect_garbage(home)
        assert report.swept_objects == 0
        assert_manifest_closed(store_b)
        retire_run(store_b)
        report = collect_garbage(home)
        assert report.swept_objects == 3
        assert measure_storage(home).physical_objects == 0

    def test_gc_grace_defers_fresh_unreferenced_blobs(self, home,
                                                      backend_name):
        store = open_store(home, backend_name)
        store.put("train", 0, make_snapshots(1.0))
        store.put("train", 0, make_snapshots(2.0))  # orphans the 1.0 blob
        deferred = collect_garbage(home, grace_seconds=3600)
        assert deferred.swept_objects == 0
        assert deferred.deferred_objects == 1
        swept = collect_garbage(home, grace_seconds=0.0)
        assert swept.swept_objects == 1

    def test_dry_run_reports_without_deleting(self, home, backend_name):
        store = open_store(home, backend_name)
        store.put("train", 0, make_snapshots(1.0))
        store.put("train", 0, make_snapshots(2.0))
        report = collect_garbage(home, dry_run=True)
        assert report.dry_run and report.swept_objects == 1
        assert measure_storage(home).physical_objects == 2

    def test_retire_run_releases_everything_of_that_run(self, home,
                                                        backend_name):
        store = open_store(home, backend_name)
        for index in range(4):
            store.put("train", index, make_snapshots(float(index)))
        report = retire_run(store)
        assert report.pruned == 4
        assert store.totals().checkpoints == 0
        collect_garbage(home)
        assert measure_storage(home).physical_objects == 0

    def test_background_manager_runs_on_spool_commits(self, home):
        store = open_store(home, "local")
        policy = RetentionPolicy(keep_last_n=2)
        manager = LifecycleManager(store, policy=policy, gc_interval=0.0001,
                                   grace_seconds=0.0)
        spool = AsyncSpool(store, workers=1, batch_size=2,
                           on_batch_commit=manager.on_manifest_commit)
        with spool:
            for index in range(8):
                spool.submit("train", index, make_snapshots(float(index)))
                time.sleep(0.002)  # let the interval elapse between batches
            spool.flush()
        assert manager.passes >= 1
        # Close-time pass (as the session would run it) settles the rest.
        manager.run_once(grace_seconds=0.0)
        assert store.executions("train") == [6, 7]
        assert_crash_consistent(store, home)
        summary = manager.summary()
        assert summary["passes"] == manager.passes
        assert summary["last_gc"] is not None

    def test_release_hints_bypass_grace_but_never_referencedness(self, home):
        store_a = open_store(home, "local", "run-a")
        store_b = open_store(home, "local", "run-b")
        store_a.put("train", 0, make_snapshots(1.0))
        store_a.put("train", 1, make_snapshots(2.0))
        store_b.put("train", 0, make_snapshots(2.0))  # shares the 2.0 blob
        report = prune_store(store_a, RetentionPolicy(keep_last_n=1))
        # Both pruned digests are hinted, but 2.0 is still referenced by
        # run-b: with a large grace only the truly-released 1.0 sweeps.
        assert report.released_digests
        gc = collect_garbage(home, grace_seconds=3600,
                             release_hints=report.released_digests)
        assert gc.swept_objects == 1
        assert measure_storage(home).physical_objects == 1
        assert_manifest_closed(store_b)

    def test_second_writer_readding_pruned_digest_survives_hinted_sweep(
            self, home):
        # Regression for the shared-home writer race: run-a prunes a
        # digest (one-shot release hint), and before the follow-up GC
        # unlinks it a *second writer* re-adds the same content —
        # payload written, manifest row not yet committed (the write
        # ordering).  The hint is time-scoped to the prune instant, so
        # the refreshed blob must fall back to the grace path and
        # survive; the stale-released blob nobody re-added still sweeps
        # immediately.
        store_a = open_store(home, "local", "run-a")
        store_b = open_store(home, "local", "run-b")
        for index in range(3):
            store_a.put("train", index, make_snapshots(float(index)))
        report = prune_store(store_a, RetentionPolicy(keep_last_n=1))
        assert report.released_at is not None
        assert len(report.released_digests) == 2
        # Separate the re-add's mtime from released_at by more than the
        # kernel's coarse file-timestamp granularity (up to ~10ms): file
        # mtimes lag the fine clock, so a tiny sleep can leave the
        # refreshed mtime *behind* the prune instant.
        time.sleep(0.05)
        pending = store_b.write_payload("train", 0, _serialized(0.0))
        assert pending.payload_digest in report.released_digests

        gc = collect_garbage(home, grace_seconds=3600,
                             release_hints=report.released_digests,
                             hints_released_at=report.released_at)
        assert gc.swept_objects == 1  # the 1.0 blob: hinted, pre-prune
        objects = store_b.backend.object_store()
        assert objects.contains(pending.payload_digest)
        store_b.index_records([pending])
        assert_manifest_closed(store_b)

    def test_hinted_unlink_recheck_skips_fresh_readd(self, home):
        # The mid-sweep half of the same race: the hint classification
        # happened at mark time, but the unlink re-checks the blob's
        # mtime against the prune instant — a dedup re-add landing
        # between mark and unlink survives the in-flight sweep.
        store = open_store(home, "local", "run-a")
        record = store.put("train", 0, make_snapshots(1.0))
        objects = store.backend.object_store()
        store.backend.delete_many([("train", 0)])  # now unreferenced
        cutoff = time.time()
        time.sleep(0.05)  # clear the coarse file-timestamp granularity
        payload = objects.get(record.payload_digest)
        objects.put(record.payload_digest, payload)  # refresh: re-add
        deleted, _ = objects.delete([record.payload_digest],
                                    not_newer_than=cutoff)
        assert deleted == 0
        assert objects.contains(record.payload_digest)

    def test_manager_close_pass_reclaims_own_prunes_despite_grace(self, home):
        # The close-time pass keeps the shared-home grace (protecting
        # other sessions' in-flight blobs) yet must still free what this
        # session's own retention released — via release hints.
        store = open_store(home, "local")
        for index in range(4):
            store.put("train", index, make_snapshots(float(index)))
        manager = LifecycleManager(store, policy=RetentionPolicy(
            keep_last_n=1), grace_seconds=3600)
        manager.run_once()  # no grace override, as Session.close runs it
        assert store.executions("train") == [3]
        assert measure_storage(home).physical_objects == 1

    def test_rereferenced_blob_reenters_grace_window(self, home):
        # An old unreferenced blob that a new write dedups onto must be
        # protected by the grace again (its age resets on the dedup hit):
        # the racing sweep's mark phase ran before the new manifest row
        # committed, so grace is the only thing standing between the
        # payload-ahead write and a dangling row.
        import os
        store = open_store(home, "local")
        record = store.put("train", 0, make_snapshots(1.0))
        objects = store.backend.object_store()
        store.backend.delete_many([("train", 0)])  # blob now unreferenced
        os.utime(objects.blob_path(record.payload_digest), (1, 1))  # "old"
        # Payload-ahead write of identical content: dedup hit, no row yet.
        pending = store.write_payload("train", 5, _serialized(1.0))
        gc = collect_garbage(home, grace_seconds=3600)
        assert gc.swept_objects == 0 and gc.deferred_objects == 1
        store.index_records([pending])
        assert_manifest_closed(store)

    def test_manager_without_interval_ignores_commit_hook(self, home):
        store = open_store(home, "local")
        manager = LifecycleManager(store, policy=RetentionPolicy(
            keep_last_n=1))
        store.put("train", 0, make_snapshots(0.0))
        manager.on_manifest_commit()  # no interval -> no pass
        assert manager.passes == 0
        manager.run_once()
        assert manager.passes == 1


# --------------------------------------------------------------------------- #
# API-level guards
# --------------------------------------------------------------------------- #
class TestApiGuards:
    def test_prune_unknown_run_raises_without_creating_junk(self, tmp_path):
        import repro
        from repro.config import FlorConfig
        config = FlorConfig(home=tmp_path / "home")
        with pytest.raises(StorageError, match="no recorded run"):
            repro.prune("no-such-run", RetentionPolicy(keep_last_n=1),
                        config)
        assert not (tmp_path / "home" / "no-such-run").exists()


# --------------------------------------------------------------------------- #
# Crash consistency under fault injection
# --------------------------------------------------------------------------- #
class TestCrashMidGC:
    def test_interrupted_sweep_never_loses_a_referenced_checkpoint(
            self, home, backend_name):
        store = open_store(home, backend_name)
        # 4 live checkpoints + 3 orphaned blobs (from overwrites).
        for index in range(4):
            store.put("train", index, make_snapshots(float(index)))
        for index in range(3):
            store.put("train", index, make_snapshots(float(index) + 100.0))
        objects = store.backend.object_store()
        # The store unlinks blob by blob: crash mid-sweep, after one
        # deletion.
        with crash_calls(objects, "_delete_blob", on_call=2):
            with pytest.raises(InjectedCrash):
                collect_garbage(home)
        # "Reboot": a fresh store over the same layout recovers fully.
        store.close()
        reopened = open_store(home, backend_name)
        assert reopened.executions("train") == [0, 1, 2, 3]
        assert_crash_consistent(reopened, home)
        assert measure_storage(home).physical_objects == 4

    def test_interrupted_sweep_mid_file_unlink_is_recoverable(self, home):
        # File-store specific: the crash lands between individual unlinks.
        store = open_store(home, "local")
        for index in range(3):
            store.put("train", index, make_snapshots(float(index)))
            store.put("train", index, make_snapshots(float(index) + 50.0))
        objects = store.backend.object_store()
        with crash_calls(objects, "_delete_blob", on_call=2, after=True):
            with pytest.raises(InjectedCrash):
                collect_garbage(home)
        assert_crash_consistent(store, home)


class TestCrashMidCommit:
    def test_partial_sharded_commit_recovers_on_reopen(self, home):
        """Kill index_many after one shard committed, before the others."""
        store = open_store(home, "sharded")
        backend = store.backend
        # Records spanning several blocks so >= 2 shards get a batch.
        records = [store.write_payload(f"block-{i}", 0,
                                       _serialized(float(i)))
                   for i in range(6)]
        shards_hit = {backend.shard_for(r.block_id) for r in records}
        assert len(shards_hit) >= 2
        # index_many commits shard batches in first-record order: crash
        # the shard of the *last* record that routes away from the first,
        # so at least one earlier shard has already committed.
        first_shard = backend.shard_for(records[0].block_id)
        victim_shard = next(backend.shard_for(r.block_id)
                            for r in reversed(records)
                            if backend.shard_for(r.block_id) != first_shard)
        victim = backend.shards[victim_shard]
        with crash_calls(victim, "index_many", on_call=1):
            with pytest.raises(InjectedCrash):
                store.index_records(records)
        store.close()
        reopened = open_store(home, "sharded")
        committed = reopened.records()
        # Some rows committed (first shard), some not — but every
        # committed row is readable, and one sweep reclaims the rest.
        assert 0 < len(committed) < len(records)
        assert_crash_consistent(reopened, home)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_spool_crash_mid_commit_leaves_no_dangling_rows(
            self, home, backend_name):
        """The batched manifest commit dies; payloads orphan, rows don't."""
        store = open_store(home, backend_name)
        with crash_calls(store.backend, "index_many", on_call=2):
            spool = AsyncSpool(store, workers=1, batch_size=2)
            for index in range(8):
                spool.submit("train", index, make_snapshots(float(index)))
            spool.flush()
            # The worker caught the injected crash as a spool error.
            assert any("InjectedCrash" in err or "call #2" in err
                       for err in spool.stats.errors)
            spool.close()
        store.close()
        reopened = open_store(home, backend_name)
        survivors = reopened.executions("train")
        assert 0 < len(survivors) < 8
        assert_crash_consistent(reopened, home)

    def test_crash_between_payload_and_index_orphans_payload_only(
            self, home, backend_name):
        store = open_store(home, backend_name)
        record = store.write_payload("train", 0, _serialized(1.0))
        # "Crash": the record never reaches index_records.  The payload
        # exists (write-ahead), the manifest does not reference it.
        assert store.totals().checkpoints == 0
        assert store.backend.read_payload(str(record.path))
        assert_no_orphans(home)  # one sweep reclaims the stranded blob
        assert measure_storage(home).physical_objects == 0


def _serialized(value: float):
    from repro.storage.serializer import serialize_checkpoint
    return serialize_checkpoint(make_snapshots(value))
