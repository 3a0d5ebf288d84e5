"""Distributed record: K workers, one shared home, one logical job.

The top half covers the workload surface (script builder, worker identity,
the merged :class:`JobGroup` catalog view).  The bottom half is the
multi-process concurrency battery the shared-home storage hardening is
proven by: K real recorder processes write into one home — in the local
layout and into run directories started in the sharded layout older
versions wrote — and afterwards the store must
show **no lost manifests** (every worker's rows readable and
digest-verified), **no orphan blobs** (one GC pass leaves exactly the
referenced set) and **exact refcounts** (derived counts match a manifest
recount), including when one worker is SIGKILLed mid-record.
"""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import WorkloadError
from repro.query.catalog import RunCatalog
from repro.storage.checkpoint_store import CheckpointStore
from repro.utils.naming import worker_run_id
from repro.workloads import (build_distributed_training_script, record_worker,
                             run_distributed_record)

from faultutils import (assert_manifest_closed, assert_no_orphans,
                        assert_refcounts_exact, kill_process,
                        make_sharded_run_dir, start_recorder_process,
                        wait_for_file)


def _start_layout(config, job_id: str, world_size: int, layout: str) -> None:
    """Start every worker run of ``job_id`` in ``layout`` before recording."""
    if layout == "sharded":
        for rank in range(world_size):
            make_sharded_run_dir(config.run_dir(worker_run_id(job_id, rank)))


class TestScriptBuilder:
    def test_script_compiles_for_every_rank(self):
        for rank in range(3):
            source = build_distributed_training_script("cifr", rank, 3,
                                                       epochs=2)
            compile(source, "<worker>", "exec")
            assert f"RANK = {rank}" in source
            assert "WORLD_SIZE = 3" in source

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            build_distributed_training_script("cifr", 3, 3)
        with pytest.raises(WorkloadError):
            build_distributed_training_script("cifr", -1, 2)
        with pytest.raises(WorkloadError):
            build_distributed_training_script("cifr", 0, 0)

    def test_world_size_validated_by_driver(self, flor_config):
        with pytest.raises(WorkloadError):
            run_distributed_record("cifr", world_size=0,
                                   config=flor_config)


class TestWorkerIdentity:
    def test_worker_records_under_job_at_rank(self, flor_config):
        result = record_worker("jobx", 1, 2, epochs=2,
                               config=flor_config)
        assert result.succeeded
        assert result.run_id == worker_run_id("jobx", 1) == "jobx@1"
        assert result.logged_iterations == 2
        assert result.checkpoint_count > 0

    def test_worker_failure_is_reported_not_raised(self, flor_config):
        result = record_worker("jobx", 0, 1, workload_name="nope",
                               config=flor_config)
        assert not result.succeeded
        assert "WorkloadError" in result.error


class TestJobGrouping:
    def test_sequential_job_groups_into_one_logical_job(self,
                                                        flor_config):
        result = run_distributed_record("cifr", world_size=1, epochs=2,
                                        config=flor_config)
        assert result.succeeded
        catalog = RunCatalog.open(flor_config)
        group = catalog.job(result.job_id)
        assert group.run_ids == tuple(result.run_ids)
        assert group.ranks == (0,)
        assert group.complete

    def test_missing_rank_detected(self, flor_config):
        # Ranks 0, 1 and 3 report in; rank 2's record never started — the
        # merged view must name the hole instead of silently shrinking the
        # job to the survivors.
        for rank in (0, 1, 3):
            assert record_worker("holey", rank, 4, epochs=2,
                                 config=flor_config).succeeded
        group = RunCatalog.open(flor_config).job("holey")
        assert group.world_size == 4
        assert group.missing_ranks == (2,)
        assert not group.complete
        assert group.worker(1).run_id == "holey@1"
        assert group.worker(2) is None

    def test_job_level_logged_values_and_checkpoints(self, flor_config):
        result = run_distributed_record("cifr", world_size=2, epochs=2,
                                        config=flor_config)
        group = RunCatalog.open(flor_config).job(result.job_id)
        assert set(group.logged_values) >= {"shard_loss", "shard_examples"}
        assert group.checkpoint_count == sum(
            worker.checkpoint_count for worker in result.workers)
        assert group.workload == "cifr"

    def test_shard_drift_visible_through_diff(self, flor_config):
        """Two workers of one job trained different shards: the logged-scan
        diff pinpoints the drift at the first shared epoch, free."""
        result = run_distributed_record("cifr", world_size=2, epochs=3,
                                        config=flor_config)
        assert result.succeeded
        run_a, run_b = result.run_ids
        report = repro.diff(run_a, run_b, ["shard_loss", "shard_examples"],
                            config=flor_config)
        drift = report.drift("shard_loss")
        assert drift.status == "diverged"
        assert drift.first_divergence == 0
        assert drift.method == "logged-scan"
        assert report.stats.replay_job_count == 0


# --------------------------------------------------------------------------- #
# The multi-process concurrency battery
# --------------------------------------------------------------------------- #
def _open_worker_stores(config, run_ids):
    return [CheckpointStore.for_config(config.run_dir(run_id), config)
            for run_id in run_ids]


def _assert_shared_home_consistent(config, run_ids, expected_iterations=None,
                                   extra_run_ids=()):
    """The battery's three invariants over one shared home.

    ``run_ids`` are the workers that must have *complete* runs;
    ``extra_run_ids`` are partial runs (a killed worker) whose committed
    rows still count toward the home's refcounts.
    """
    stores = _open_worker_stores(config, run_ids)
    extra = _open_worker_stores(config, extra_run_ids)
    try:
        for run_id, store in zip(run_ids, stores):
            rows = assert_manifest_closed(store)
            assert rows > 0, f"worker {run_id} lost its manifest"
            if expected_iterations is not None:
                assert store.totals().checkpoints >= expected_iterations, (
                    f"worker {run_id} lost manifest rows: "
                    f"{store.totals().checkpoints} < {expected_iterations}")
        for store in extra:
            assert_manifest_closed(store)
        assert_no_orphans(config.home)
        assert_refcounts_exact(config.home, stores + extra)
    finally:
        for store in stores + extra:
            store.close()


@pytest.mark.multiproc
@pytest.mark.parametrize("backend", ["local", "sharded"])
def test_concurrent_worker_processes_share_one_home(tmp_path, backend,
                                                   monkeypatch):
    """K=4 real recorder processes, one home: nothing lost, nothing orphaned."""
    config = repro.FlorConfig(home=tmp_path / "home")
    monkeypatch.setattr("repro.workloads.distributed.new_run_id",
                        lambda name: "ddpjob")
    _start_layout(config, "ddpjob", 4, backend)
    result = run_distributed_record("cifr", world_size=4, epochs=2,
                                    config=config)
    assert result.succeeded, [w.error for w in result.workers]
    assert len(set(result.run_ids)) == 4
    _assert_shared_home_consistent(config, result.run_ids,
                                   expected_iterations=2)
    group = RunCatalog.open(config).job(result.job_id)
    assert group.complete and group.world_size == 4


@pytest.mark.multiproc
@pytest.mark.parametrize("backend", ["local", "sharded"])
def test_worker_killed_mid_record_leaves_home_consistent(tmp_path, backend):
    """SIGKILL one of K=4 workers mid-record: survivors keep their runs,
    the victim's partial manifest stays closed, and one GC sweep restores
    the exact referenced set with exact refcounts."""
    config = repro.FlorConfig(home=tmp_path / "home")
    job_id, victim_rank = "killjob", 3
    _start_layout(config, job_id, 4, backend)
    victim = start_recorder_process(job_id, victim_rank, 4, config=config,
                                    epochs=400)
    survivors = [start_recorder_process(job_id, rank, 4, config=config,
                                        epochs=2)
                 for rank in range(3)]

    victim_dir = config.run_dir(worker_run_id(job_id, victim_rank))
    assert wait_for_file(victim_dir / "record.log"), \
        "victim never started recording"
    kill_process(victim)
    for process in survivors:
        process.join(timeout=60)
        assert process.exitcode == 0

    survivor_ids = [worker_run_id(job_id, rank) for rank in range(3)]
    # Survivors must be whole; the victim's partial manifest must still be
    # closed (committed rows readable, digest-verified), the GC sweep in
    # the middle must reclaim only what no manifest — victim's included —
    # references, and refcounts must recount exactly.
    _assert_shared_home_consistent(
        config, survivor_ids, expected_iterations=2,
        extra_run_ids=[worker_run_id(job_id, victim_rank)])
