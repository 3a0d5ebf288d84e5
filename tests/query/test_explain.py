"""Tests for ``repro.explain``: plan reporting without execution."""

from __future__ import annotations

import json
import textwrap

import pytest

import repro
from repro.exceptions import ReplaySafetyError
from repro.query.explain import ExplainReport, SpanChoice, explain
from repro.query.memo import MemoCache
from repro.record.recorder import record_source
from repro.storage.checkpoint_store import CheckpointStore

EPOCHS = 6

SCRIPT = textwrap.dedent(f"""
    import numpy as np
    from repro import api as flor

    state = np.zeros(8, dtype='float32')
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
def recorded(flor_config):
    return record_source(SCRIPT, name="explained", config=flor_config)


class TestExplainReport:
    def test_counts_match_the_query_stats(self, flor_config, recorded):
        report = explain(values=["loss", "norm"], runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        result = repro.query(values=["loss", "norm"],
                             runs=recorded.run_id, source=PROBE,
                             config=flor_config)
        assert report.count("logged") == result.stats.resolved_logged
        assert report.count("memo") == result.stats.resolved_memo
        assert report.count("analysis") == result.stats.analysis_resolved
        assert report.count("replay") == result.stats.resolved_replay
        assert report.count("missing") == result.stats.missing_cells
        assert report.requested_cells == result.stats.requested_cells

    def test_explain_after_memoization_predicts_memo_reads(
            self, flor_config, recorded):
        repro.query(values="norm", runs=recorded.run_id, source=PROBE,
                    config=flor_config)
        report = explain(values="norm", runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        assert report.count("memo") == EPOCHS
        assert report.count("replay") == 0
        assert report.replay_span_count == 0

    def test_explain_does_not_execute_or_memoize(self, flor_config,
                                                 recorded):
        report = explain(values="norm", runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        assert report.count("replay") == EPOCHS
        store = CheckpointStore.for_config(
            flor_config.run_dir(recorded.run_id), flor_config)
        try:
            assert MemoCache.keys(store) == []
        finally:
            store.close()

    def test_missing_without_probe_source(self, flor_config, recorded):
        report = explain(values="norm", runs=recorded.run_id,
                         config=flor_config)
        assert report.count("missing") == EPOCHS
        assert report.count("replay") == 0

    def test_spans_are_priced(self, flor_config, recorded):
        report = explain(values="norm", runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        run = report.run(recorded.run_id)
        assert run.spans, "replay plan should need spans"
        covered = set()
        for span in run.spans:
            assert span.estimated_seconds >= 0.0
            covered.update(range(span.start, span.stop))
        assert covered == set(range(EPOCHS))
        assert report.estimated_replay_seconds == pytest.approx(
            sum(span.estimated_seconds for span in run.spans))

    def test_probe_safety_gate_still_applies(self, flor_config, recorded):
        mutating = SCRIPT.replace(
            'flor.log("loss", float(state.sum()))',
            'state = state * 0.0\n'
            '    flor.log("loss", float(state.sum()))')
        with pytest.raises(ReplaySafetyError):
            explain(values="loss", runs=recorded.run_id, source=mutating,
                    config=flor_config)


class TestRenderers:
    def test_render_text(self, flor_config, recorded):
        report = explain(values=["loss", "norm"], runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        text = report.render_text()
        assert f"run {recorded.run_id}" in text
        assert "logged" in text and "replay" in text
        assert "span [" in text

    def test_json_document(self, flor_config, recorded):
        report = explain(values="loss", runs=recorded.run_id,
                         config=flor_config)
        document = json.loads(report.to_json())
        assert document["schema"] == 1
        assert document["summary"]["logged"] == EPOCHS
        assert document["runs"][0]["run_id"] == recorded.run_id

    def test_payload_round_trip(self, flor_config, recorded):
        report = explain(values=["loss", "norm"], runs=recorded.run_id,
                         source=PROBE, config=flor_config)
        back = ExplainReport.from_payload(report.to_payload())
        assert back.to_payload() == report.to_payload()
        assert back.sources() == report.sources()

    def test_payload_with_planner_mode_still_loads(self, flor_config,
                                                   recorded):
        # Documents written when the planner had selectable modes carry a
        # ``planner_mode`` key; loading ignores it.
        report = explain(values="loss", runs=recorded.run_id,
                         config=flor_config)
        legacy = {**report.to_payload(), "planner_mode": "cost"}
        assert ExplainReport.from_payload(legacy).to_payload() \
            == report.to_payload()

    def test_span_choice_round_trip(self):
        span = SpanChoice(start=3, stop=9, restore_index=2,
                          estimated_seconds=0.5)
        assert SpanChoice.from_dict(span.to_dict()) == span
        assert span.iterations == 6
        scratch = SpanChoice(start=0, stop=4, restore_index=None,
                             estimated_seconds=0.1)
        assert "from-scratch" in scratch.render()
