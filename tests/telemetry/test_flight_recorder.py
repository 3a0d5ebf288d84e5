"""End-to-end flight recorder: sessions, workers, persistence, feedback.

These tests record (and replay) tiny runs with ``FlorConfig.telemetry``
on and assert the promises of the telemetry subsystem: spans from every
hot seam land in one bounded buffer, worker-process spans come back
re-parented under the dispatching span, the document is persisted as
store metadata at session close, and measured restore durations feed the
planner's cost model.
"""

from __future__ import annotations

import os
import textwrap

import numpy as np
import pytest

import repro
from repro.config import FlorConfig
from repro.record.recorder import record_source
from repro.replay.scheduler import load_iteration_costs
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.compression import codec_of
from repro.storage.serializer import snapshot_value
from repro.telemetry import (METADATA_KEY, configure, document_spans,
                             get_metrics, get_tracer, walk_children)

EPOCHS = 8

SCRIPT = textwrap.dedent(f"""
    import numpy as np
    from repro import api as flor

    state = np.zeros(16, dtype='float32')
    for epoch in range({EPOCHS}):
        for _step in range(1):
            state = state + 1.0
        flor.log("loss", float(state.sum()))
""")

PROBE = SCRIPT.replace(
    'flor.log("loss", float(state.sum()))',
    'flor.log("loss", float(state.sum()))\n'
    '    flor.log("norm", float(np.linalg.norm(state)))')


@pytest.fixture()
def telemetry_config(tmp_path):
    # Default (spool) materialization: the telemetry tests assert spans
    # from the spool seams specifically.
    config = FlorConfig(home=tmp_path / "flor_home", telemetry=True)
    repro.set_config(config)
    yield config
    repro.reset_config()


class TestRecordCapture:
    def test_telemetry_off_by_default_leaves_no_trace(self, flor_config):
        configure(enabled=False)
        get_metrics().configure(enabled=False)
        result = record_source(SCRIPT, name="dark", config=flor_config)
        assert len(get_tracer()) == 0
        assert get_metrics().snapshot()["counters"] == {}
        store = CheckpointStore.for_config(
            flor_config.run_dir(result.run_id), flor_config)
        try:
            assert store.get_metadata(METADATA_KEY) is None
        finally:
            store.close()

    def test_record_session_persists_a_document(self, telemetry_config):
        result = record_source(SCRIPT, name="lit", config=telemetry_config)
        store = CheckpointStore.for_config(
            telemetry_config.run_dir(result.run_id), telemetry_config)
        try:
            document = store.get_metadata(METADATA_KEY)
        finally:
            store.close()
        assert document["meta"]["run_id"] == result.run_id
        names = {span.name for span in document_spans(document)}
        # Hot seams across the layers all reported in.
        assert "record.session" in names
        assert "record.iteration" in names
        assert "record.capture" in names
        assert any(name.startswith("spool.") for name in names)
        assert any(name.startswith("storage.") for name in names)
        counters = document["metrics"]["counters"]
        assert counters["record.checkpoints"] >= 1

    def test_buffer_stays_within_configured_capacity(self, tmp_path):
        config = FlorConfig(home=tmp_path / "flor_home",
                            telemetry=True, telemetry_buffer=32)
        repro.set_config(config)
        try:
            record_source(SCRIPT, name="ring", config=config)
            assert get_tracer().capacity == 32
            assert len(get_tracer()) <= 32
        finally:
            repro.reset_config()


@pytest.mark.multiproc
class TestCrossProcessSpans:
    def test_worker_spans_reparent_under_the_dispatch_span(
            self, telemetry_config):
        recorded = record_source(SCRIPT, name="pool",
                                 config=telemetry_config)
        result = repro.query(values=["loss", "norm"], runs=recorded.run_id,
                             source=PROBE, config=telemetry_config,
                             workers=2)
        assert result.stats.resolved_replay == EPOCHS
        assert result.stats.replay_job_count >= 2

        spans = get_tracer().spans()
        dispatches = [span for span in spans if span.name == "replay.jobs"]
        assert dispatches, "pool dispatch span missing"
        dispatch = dispatches[-1]
        children = list(walk_children(spans, dispatch.span_id))
        worker_pids = {span.pid for span in children} - {os.getpid()}
        assert worker_pids, "no spans shipped back from worker processes"
        child_names = {span.name for span in children}
        assert any(name.startswith("replay.") for name in child_names)
        # Worker-side spans keep their own subtree structure: every child
        # either hangs off the dispatch or off another shipped span.
        shipped_ids = {span.span_id for span in children}
        for span in children:
            assert span.parent_id == dispatch.span_id \
                or span.parent_id in shipped_ids


@pytest.mark.multiproc
class TestCostFeedback:
    def test_observed_restore_seconds_feed_iteration_costs(
            self, telemetry_config):
        recorded = record_source(SCRIPT, name="ewma",
                                 config=telemetry_config)
        repro.query(values="norm", runs=recorded.run_id, source=PROBE,
                    config=telemetry_config, workers=2)
        store = CheckpointStore.for_config(
            telemetry_config.run_dir(recorded.run_id), telemetry_config)
        try:
            stats = store.get_metadata("iteration_stats")
            costs = load_iteration_costs(store)
        finally:
            store.close()
        assert stats["restore_observations"] >= 1
        observed = stats["observed_restore_seconds"]
        assert observed > 0.0
        # The measured EWMA replaces the prior in the planner's cost model.
        assert costs.restore_seconds == pytest.approx(observed)


class TestChunkedWriteAccounting:
    def test_chunks_are_counted_by_the_codec_their_frame_carries(
            self, enabled_telemetry, tmp_path):
        """The content probe frames chunks of one checkpoint differently."""
        chunk = 64 * 1024
        rng = np.random.default_rng(0)
        store = CheckpointStore(tmp_path / "run", chunking="fixed",
                                chunk_nbytes=chunk)
        store.put("train", 0, [
            snapshot_value("backbone", rng.standard_normal(
                2 * chunk).astype(np.float32)),                 # 8 chunks
            snapshot_value("momentum", np.zeros(2 * chunk, np.float32))])
        objects = store.backend.object_store()
        frames = [codec_of(objects.get(digest))
                  for digest in objects.digests()]
        counters = get_metrics().snapshot()["counters"]
        assert counters["storage.codec.raw"] == frames.count("raw") == 8
        assert counters["storage.codec.gzip"] == frames.count("gzip") >= 1
        span = next(span for span in enabled_telemetry.spans()
                    if span.name == "storage.chunk")
        assert span.attrs["codec"] == "gzip"
        assert span.attrs["raw_chunks"] == 8
        assert span.attrs["bypassed_nbytes"] == 8 * chunk

    def test_get_span_counts_the_chunks_it_reused(self, enabled_telemetry,
                                                  tmp_path):
        """A read reuses what the store's previous chunked read verified."""
        store = CheckpointStore(tmp_path / "run", chunking="fixed",
                                chunk_nbytes=4096)
        record = store.put("train", 0, [snapshot_value(
            "weights", np.arange(8192, dtype=np.float32))])
        store.get("train", 0)
        store.get("train", 0)
        reused = [span.attrs["reused"] for span in enabled_telemetry.spans()
                  if span.name == "storage.get"]
        assert reused == [0, len(set(record.recipe_digests()))] and reused[1]
