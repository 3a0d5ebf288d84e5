"""Shared fixtures for the benchmark harness.

Every benchmark gets an isolated Flor home; the live record/replay
benchmarks share a single recorded run per session so the record phase is
not repeated for every measurement.
"""

from __future__ import annotations

import pytest

import repro
from repro.config import FlorConfig


@pytest.fixture(scope="session")
def bench_config(tmp_path_factory):
    """Session-wide Flor configuration rooted in a temporary directory."""
    home = tmp_path_factory.mktemp("flor_bench_home")
    config = FlorConfig(home=home)
    repro.set_config(config)
    yield config
    repro.reset_config()


@pytest.fixture(scope="session")
def recorded_cifr_run(bench_config):
    """A recorded miniature Cifr run shared by the replay benchmarks."""
    from repro.record.recorder import record_source
    from repro.workloads.training import build_training_script

    script = build_training_script("Cifr", epochs=4)
    result = record_source(script, name="bench-cifr", config=bench_config)
    return {"record": result, "script": script, "config": bench_config}
