"""Cross-run drift diff: correctness and the O(log n) replay-job budget.

Three layers, cheapest first:

* pure-function properties of the bisection core against a stub prober —
  hypothesis drives hundreds of planted divergences through
  ``_bisect_drift`` with zero recording;
* recorded toy runs (a tiny numpy trajectory, dense checkpoints) where a
  perturbation is planted via ``script_globals`` — same source text, same
  loop blocks — so every resolution tier is exercised end to end:
  logged-scan (free), digest pre-narrowing (free), and probe bisection
  whose replay jobs are counted through the QueryStats ledger;
* the acceptance benchmark: a 512-iteration pair with one planted
  divergence must resolve within 12 replay jobs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import QueryError
from repro.query.diff import DiffStats, _bisect_drift, _values_equal
from repro.record.recorder import record_source

TOY_TEMPLATE = '''\
import numpy as np
from repro import api as flor

PERTURB_AT = globals().get("PERTURB_AT", -1)
state = np.zeros(8)

def _advance(value, step):
    value = value + 0.25
    if step == PERTURB_AT:
        value = value + 0.5
    return value

for step in range({n}):
    for _ in range(1):
        state = _advance(state, step)
    flor.log("signal", float(state.sum()))
'''


def toy_script(n: int) -> str:
    return TOY_TEMPLATE.format(n=n)


def probe_script(n: int) -> str:
    """The toy script plus a probe-only value (never logged at record)."""
    return toy_script(n).replace(
        'flor.log("signal", float(state.sum()))',
        'flor.log("signal", float(state.sum()))\n'
        '    flor.log("probe_norm", float(np.linalg.norm(state)))')


@pytest.fixture()
def dense_config(flor_config):
    """Dense checkpoints: every iteration aligned, every digest comparable."""
    return flor_config.with_overrides(adaptive_checkpointing=False)


def record_pair(config, n: int, perturb_at: int | None):
    """Record a baseline run and a (possibly perturbed) twin; same source."""
    baseline = record_source(toy_script(n), name="toy-a", config=config)
    twin_globals = ({"PERTURB_AT": perturb_at}
                    if perturb_at is not None else None)
    twin = record_source(toy_script(n), name="toy-b", config=config,
                         script_globals=twin_globals)
    return baseline.run_id, twin.run_id


# --------------------------------------------------------------------------- #
# Bisection core: hypothesis over planted persistent drifts (no recording)
# --------------------------------------------------------------------------- #
class StubProber:
    """In-memory stand-in for _ValueProber: two value trajectories."""

    def __init__(self, values_a, values_b):
        self.values_a = values_a
        self.values_b = values_b
        self.probes = 0
        self._seen: set[int] = set()

    def at(self, iteration: int):
        if iteration not in self._seen:
            self._seen.add(iteration)
            self.probes += 1
        return (self.values_a[iteration], self.values_b[iteration])


@given(n=st.integers(min_value=1, max_value=700),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_bisection_finds_planted_divergence_within_log_budget(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1), label="k")
    values_a = [0.0] * n
    values_b = [0.0] * k + [1.0] * (n - k)
    prober = StubProber(values_a, values_b)
    stats = DiffStats()
    drift = _bisect_drift("v", list(range(n)), prober, 0.0, stats)
    assert drift.status == "diverged"
    assert drift.first_divergence == k
    assert drift.last_equal == (k - 1 if k > 0 else None)
    assert drift.value_b == 1.0
    # Endpoint confirmation + bisection + baseline: ceil(log2 n) + 3.
    assert prober.probes <= math.ceil(math.log2(n)) + 3 if n > 1 \
        else prober.probes <= 2


@given(n=st.integers(min_value=1, max_value=300))
@settings(max_examples=50, deadline=None)
def test_bisection_equal_trajectories_cost_one_probe(n):
    prober = StubProber([0.5] * n, [0.5] * n)
    drift = _bisect_drift("v", list(range(n)), prober, 0.0, DiffStats())
    assert drift.status == "equal"
    assert drift.last_equal == n - 1
    assert prober.probes == 1  # the endpoint check alone settles it


@given(n=st.integers(min_value=2, max_value=300),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_digest_bracket_collapses_search_to_constant_probes(n, data):
    """When the state divergence coincides with the value divergence (the
    planted-drift shape), the digest bracket makes the search O(1)."""
    k = data.draw(st.integers(min_value=1, max_value=n - 1), label="k")
    values_a = [0.0] * n
    values_b = [0.0] * k + [1.0] * (n - k)
    prober = StubProber(values_a, values_b)
    stats = DiffStats(last_state_match=k - 1, state_divergence=k)
    drift = _bisect_drift("v", list(range(n)), prober, 0.0, stats)
    assert drift.status == "diverged"
    assert drift.first_divergence == k
    assert drift.method == "digest+bisect"
    assert prober.probes <= 3


def test_unresolved_when_probe_cannot_answer():
    prober = StubProber([None] * 8, [1.0] * 8)
    drift = _bisect_drift("v", list(range(8)), prober, 0.0, DiffStats())
    assert drift.status == "unresolved"


def test_values_equal_semantics():
    assert _values_equal(1.0, 1.0 + 1e-9, 1e-6)
    assert not _values_equal(1.0, 1.1, 1e-6)
    assert _values_equal(float("nan"), float("nan"), 0.0)
    assert not _values_equal(float("nan"), 1.0, 0.0)
    # Bools are excluded from the tolerance path: True vs False is a
    # divergence no matter how loose the tolerance.
    assert not _values_equal(True, False, 10.0)
    assert _values_equal("same", "same", 0.0)


# --------------------------------------------------------------------------- #
# End to end on recorded runs
# --------------------------------------------------------------------------- #
class TestLoggedScan:
    def test_logged_value_diffs_for_free(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=24, perturb_at=9)
        report = repro.diff(run_a, run_b, "signal", config=dense_config)
        drift = report.drift("signal")
        assert drift.status == "diverged"
        assert drift.first_divergence == 9
        assert drift.last_equal == 8
        assert drift.method == "logged-scan"
        assert report.stats.replay_job_count == 0
        assert report.diverged

    def test_identical_runs_are_equal(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=12, perturb_at=None)
        report = repro.diff(run_a, run_b, "signal", config=dense_config)
        drift = report.drift("signal")
        assert drift.status == "equal"
        assert drift.last_equal == 11
        assert not report.diverged

    def test_tolerance_absorbs_planted_drift(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=12, perturb_at=5)
        # The perturbation shifts the 8-element sum by 8 * 0.5 = 4.0.
        report = repro.diff(run_a, run_b, "signal", tolerance=5.0,
                            config=dense_config)
        assert report.drift("signal").status == "equal"

    def test_columnar_report_shape(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=8, perturb_at=3)
        report = repro.diff(run_a, run_b, "signal", config=dense_config)
        records = report.to_records()
        assert [r["name"] for r in records] == ["signal"]
        assert set(records[0]) == set(report.COLUMNS)
        columns = report.to_columns()
        assert columns["first_divergence"] == [3]
        assert report.first_divergence("signal") == 3


class TestDiffErrors:
    def test_same_run_twice_rejected(self, dense_config):
        run_a, _ = record_pair(dense_config, n=4, perturb_at=None)
        with pytest.raises(QueryError):
            repro.diff(run_a, run_a, "signal", config=dense_config)

    def test_unknown_run_rejected(self, dense_config):
        run_a, _ = record_pair(dense_config, n=4, perturb_at=None)
        with pytest.raises(QueryError):
            repro.diff(run_a, "no-such-run", "signal", config=dense_config)

    def test_empty_values_rejected(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=4, perturb_at=None)
        with pytest.raises(QueryError):
            repro.diff(run_a, run_b, [], config=dense_config)

    def test_unlogged_value_needs_probe_source(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=4, perturb_at=None)
        with pytest.raises(QueryError, match="probe script"):
            repro.diff(run_a, run_b, "probe_norm", config=dense_config)


class TestProbedBisection:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_seeded_random_plant_found_within_log_budget(self, dense_config,
                                                         seed):
        """Pure bisection (digests off, memo off): the planted iteration is
        found exactly, within ceil(log2 n) + 3 probes and two replay jobs
        per probe, counted through the QueryStats ledger."""
        import random
        n = 48
        k = random.Random(seed).randrange(n)
        run_a, run_b = record_pair(dense_config, n=n, perturb_at=k)
        report = repro.diff(run_a, run_b, "probe_norm",
                            source=probe_script(n),
                            use_checkpoint_digests=False,
                            memoize=False, config=dense_config)
        drift = report.drift("probe_norm")
        assert drift.status == "diverged"
        assert drift.first_divergence == k
        assert drift.method == "bisect"
        budget = math.ceil(math.log2(n)) + 3
        assert report.stats.probe_queries <= budget
        assert report.stats.replay_job_count <= 2 * budget
        assert len(report.stats.replay_jobs) == \
            report.stats.replay_job_count

    def test_digest_narrowing_collapses_probe_count(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=64, perturb_at=41)
        report = repro.diff(run_a, run_b, "probe_norm",
                            source=probe_script(64),
                            memoize=False, config=dense_config)
        drift = report.drift("probe_norm")
        assert drift.status == "diverged"
        assert drift.first_divergence == 41
        assert drift.method == "digest+bisect"
        assert report.stats.state_divergence == 41
        assert report.stats.last_state_match == 40
        # Digest narrowing is free replay-wise and collapses the search.
        assert report.stats.probe_queries <= 3
        assert report.stats.replay_job_count <= 6

    def test_memoized_rediff_issues_fewer_jobs(self, dense_config):
        run_a, run_b = record_pair(dense_config, n=32, perturb_at=17)
        first = repro.diff(run_a, run_b, "probe_norm",
                           source=probe_script(32), config=dense_config)
        second = repro.diff(run_a, run_b, "probe_norm",
                            source=probe_script(32), config=dense_config)
        assert first.drift("probe_norm").first_divergence == 17
        assert second.drift("probe_norm").first_divergence == 17
        assert second.stats.replay_job_count < \
            max(1, first.stats.replay_job_count)


class TestAcceptance512:
    def test_one_planted_divergence_resolves_within_twelve_jobs(
            self, dense_config):
        """The PR's acceptance bar: 512-iteration pair, one planted
        divergence, resolved with at most 12 replay jobs."""
        n, k = 512, 137
        run_a, run_b = record_pair(dense_config, n=n, perturb_at=k)
        report = repro.diff(run_a, run_b, "probe_norm",
                            source=probe_script(n),
                            memoize=False, config=dense_config)
        drift = report.drift("probe_norm")
        assert drift.status == "diverged"
        assert drift.first_divergence == k
        assert drift.method == "digest+bisect"
        assert report.stats.common_iterations == n
        assert report.stats.replay_job_count <= 12, \
            report.stats.summary()
