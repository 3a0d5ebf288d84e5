"""Tests for the cloud cost model."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.storage.costs import (GiB, INSTANCE_PRICES, S3_PRICE_PER_GB_MONTH,
                                 compute_cost, gb, storage_cost_per_month)


class TestStorageCosts:
    def test_rsnt_monthly_cost_matches_table4(self):
        """Table 4: 39 GB of RsNt checkpoints cost ~$0.90 per month."""
        assert storage_cost_per_month(39 * GiB) == pytest.approx(0.897, abs=0.01)

    def test_imgn_monthly_cost_matches_table4(self):
        """Table 4: 51 MB of ImgN checkpoints cost ~$0.001 per month."""
        assert storage_cost_per_month(51 * 1024 ** 2) == pytest.approx(0.0011,
                                                                       abs=0.0005)

    def test_all_table4_workloads_under_a_dollar(self):
        """Section 6.2: every workload's checkpoints cost < $1.00/month."""
        from repro.workloads.registry import WORKLOADS
        for spec in WORKLOADS.values():
            assert storage_cost_per_month(spec.checkpoint_nbytes) < 1.00

    def test_130gb_costs_about_one_gpu_hour(self):
        """Section 6.2: storing 130 GB for a month ~ one single-GPU hour."""
        storage = storage_cost_per_month(130 * GiB)
        gpu_hour = compute_cost(1.0, instance="p3.2xlarge")
        assert storage == pytest.approx(gpu_hour, rel=0.05)

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            storage_cost_per_month(-1)

    def test_gb_conversion(self):
        assert gb(GiB) == pytest.approx(1.0)


class TestComputeCosts:
    def test_p3_8xlarge_hourly_price(self):
        assert INSTANCE_PRICES["p3.8xlarge"].hourly_usd == pytest.approx(12.24)
        assert INSTANCE_PRICES["p3.8xlarge"].gpus == 4

    def test_linear_in_hours_and_count(self):
        single = compute_cost(2.0, "p3.2xlarge")
        assert compute_cost(4.0, "p3.2xlarge") == pytest.approx(2 * single)
        assert compute_cost(2.0, "p3.2xlarge", count=3) == pytest.approx(3 * single)

    def test_parallel_cost_roughly_equals_serial_cost(self):
        """Figure 14's core point: 4 GPUs for T/4 hours ~ 1 GPU for T hours."""
        serial = compute_cost(12.0, "p3.2xlarge")
        parallel = compute_cost(3.0, "p3.8xlarge")
        assert parallel == pytest.approx(serial, rel=0.01)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            compute_cost(-1.0)
        with pytest.raises(SimulationError):
            compute_cost(1.0, "m5.large")
        with pytest.raises(SimulationError):
            compute_cost(1.0, count=0)

