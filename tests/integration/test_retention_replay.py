"""Retention vs replay: pruned history must not corrupt hindsight answers.

The scenario the lifecycle layer has to survive: a run is recorded with a
healthy checkpoint density, retention later prunes mid-history executions
(keeping the recent tail plus whatever the guardrails protect), and only
*then* does someone replay or query the run.  The replay scheduler must
bridge the pruned gap from the surviving checkpoints — recomputing
forward instead of restoring stale state — and ``repro.query`` must
return values identical to the record, cell for cell.
"""

from __future__ import annotations

import textwrap

import pytest

import repro
from repro.query.catalog import RunCatalog
from repro.record.recorder import record_source
from repro.replay.replayer import replay_script
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.lifecycle import RetentionPolicy, collect_garbage

EPOCHS = 6

TRAINING_SCRIPT = textwrap.dedent(f"""
    import numpy as np
    from repro import api as flor
    from repro import torchlike as tl

    rng = np.random.default_rng(0)
    X = rng.standard_normal((48, 6)).astype('float32')
    y = (X[:, 0] - X[:, 1] > 0).astype('int64')
    dataset = tl.TensorDataset(X, y)
    trainloader = tl.DataLoader(dataset, batch_size=12, shuffle=True, seed=0)
    net = tl.Sequential(tl.Linear(6, 10, rng=rng), tl.ReLU(),
                        tl.Linear(10, 2, rng=rng))
    optimizer = tl.SGD(net.parameters(), lr=0.15, momentum=0.9)
    criterion = tl.CrossEntropyLoss()

    for epoch in range({EPOCHS}):
        trainloader.set_epoch(epoch)
        for batch_x, batch_y in trainloader:
            logits = net(tl.Tensor(batch_x))
            loss = criterion(logits, batch_y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        flor.log("train_loss", loss.item())
""")


@pytest.fixture()
def recorded(flor_config):
    """A dense run: adaptive off, so every epoch has a checkpoint."""
    config = flor_config.with_overrides(adaptive_checkpointing=False)
    repro.set_config(config)
    result = record_source(TRAINING_SCRIPT, name="retention", config=config)
    assert result.checkpoint_count == EPOCHS
    return result


def record_values(recorded):
    return [r.value for r in recorded.log_records if r.name == "train_loss"]


class TestPrunedHistoryReplay:
    def test_parallel_replay_bridges_over_pruned_mid_history(
            self, flor_config, recorded):
        store = CheckpointStore(flor_config.run_dir(recorded.run_id))
        report = store.prune(RetentionPolicy(keep_last_n=2))
        # Mid-history gone, the recent tail survives.
        assert report.pruned == EPOCHS - 2
        assert store.executions("skipblock_0") == [4, 5]
        collect_garbage(flor_config.home)
        store.close()

        config = flor_config.with_overrides(adaptive_checkpointing=False)
        for num_workers in (1, 2, 4):
            replay = replay_script(recorded.run_id, num_workers=num_workers,
                                   config=config)
            assert replay.succeeded, num_workers
            assert replay.consistency is not None
            assert replay.consistency.consistent, num_workers
            assert replay.values("train_loss") == pytest.approx(
                record_values(recorded)), num_workers

    def test_query_after_prune_matches_record(self, flor_config, recorded):
        config = flor_config.with_overrides(adaptive_checkpointing=False)
        # Prime the catalog entry on the dense run, then prune: the stale
        # entry's aligned set now over-promises, and the catalog must
        # rebuild it (fingerprint mismatch) rather than plan against it.
        RunCatalog.open(config)
        store = CheckpointStore(flor_config.run_dir(recorded.run_id))
        store.prune(RetentionPolicy(keep_last_n=2))
        collect_garbage(flor_config.home)
        store.close()

        catalog = RunCatalog.open(config)
        entry = catalog.get(recorded.run_id)
        assert entry is not None
        assert len(entry.aligned_iterations) == 2  # rebuilt post-prune

        result = repro.query("train_loss", runs=recorded.run_id,
                             config=config, catalog=catalog)
        by_iteration = result.pivot("train_loss")[recorded.run_id]
        expected = record_values(recorded)
        assert [by_iteration[i] for i in range(EPOCHS)] == pytest.approx(
            expected)
        assert result.stats.missing_cells == 0

    def test_retired_run_keeps_logged_answers_but_no_replay_spans(
            self, flor_config, recorded):
        config = flor_config.with_overrides(adaptive_checkpointing=False)
        catalog = RunCatalog.open(config)
        catalog.retire(recorded.run_id)
        entry = catalog.get(recorded.run_id)
        assert entry.retired and entry.checkpoint_count == 0
        # Logged values still answer without any checkpoint.
        result = repro.query("train_loss", runs=recorded.run_id,
                             config=config, catalog=catalog)
        assert result.stats.resolved_logged == EPOCHS
        assert result.stats.missing_cells == 0
        by_iteration = result.pivot("train_loss")[recorded.run_id]
        assert [by_iteration[i] for i in range(EPOCHS)] == pytest.approx(
            record_values(recorded))
