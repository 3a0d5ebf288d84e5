"""Tests for the per-figure/table experiment harness."""

from __future__ import annotations

import pytest

from repro.sim import experiments as ex
from repro.workloads.registry import workload_names


ALL_WORKLOAD_EXPERIMENTS = [
    (ex.figure7_adaptive_overhead, "Workload"),
    (ex.figure10_parallel_replay_fraction, "Workload"),
    (ex.figure11_record_overhead, "Workload"),
    (ex.figure12_replay_latency, "Workload"),
    (ex.figure14_parallel_cost, "Workload"),
    (ex.table3_workloads, "Name"),
    (ex.table4_storage_costs, "Name"),
]


class TestExperimentHarness:
    @pytest.mark.parametrize("build_rows,name_column", ALL_WORKLOAD_EXPERIMENTS)
    def test_every_workload_experiment_covers_all_eight_workloads(
            self, build_rows, name_column):
        rows = build_rows()
        assert len(rows) == 8
        assert {row[name_column] for row in rows} == set(workload_names())

    def test_figure13_covers_four_machine_counts(self):
        rows = ex.figure13_scaleout()
        assert [row["Machines"] for row in rows] == [1, 2, 3, 4]
        assert all(row["Speedup"] <= row["Ideal speedup"] + 1e-9 for row in rows)

    def test_table3_matches_paper_columns(self):
        rows = ex.table3_workloads()
        rte = next(row for row in rows if row["Name"] == "RTE")
        assert rte["Model"] == "RoBERTa"
        assert rte["Train/Tune"] == "Fine-Tune"
        assert rte["Epochs"] == 200

    def test_table4_sorted_by_size_and_all_under_one_dollar(self):
        rows = ex.table4_storage_costs()
        sizes = [row["Checkpoint Size (GB)"] for row in rows]
        assert sizes == sorted(sizes)
        assert all(row["Storage Cost / Mo. ($)"] < 1.00 for row in rows)

    def test_figure7_no_workload_exceeds_tolerance(self):
        rows = ex.figure7_adaptive_overhead()
        assert all(row["Overhead (adaptive)"] <= row["Tolerance"] + 1e-6
                   for row in rows)
        rte = next(row for row in rows if row["Workload"] == "RTE")
        assert rte["Overhead (adaptivity disabled)"] > 0.5

    def test_figure12_reports_speedup_factors(self):
        rows = ex.figure12_replay_latency()
        assert all(row["Outer-probe speedup"] >= 1.0 for row in rows)
        assert max(row["Outer-probe speedup"] for row in rows) > 100

    def test_format_table_renders_all_columns(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 200, "b": 0.25}]
        text = ex.format_table(rows)
        assert "a" in text.splitlines()[0]
        assert len(text.splitlines()) == 4

    def test_format_table_empty(self):
        assert ex.format_table([]) == "(no rows)"
