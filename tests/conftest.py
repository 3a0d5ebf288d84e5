"""Shared pytest fixtures.

Every test that records or replays gets an isolated Flor home under the
test's temporary directory, and the process-wide configuration is restored
afterwards so tests cannot leak state into each other.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import FlorConfig

# Make shared test helpers (tests/faultutils.py) importable from test
# modules in subdirectories (pytest only inserts each test file's own dir).
_TESTS_DIR = str(Path(__file__).parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


#: Default wall-clock budget for ``@pytest.mark.multiproc`` and
#: ``@pytest.mark.service`` tests.  A hung worker process (or a service
#: request that never answers) would otherwise stall the whole suite on
#: ``join()``; the alarm turns the hang into a normal test failure
#: (pytest-timeout is not a dependency, so the guard is hand-rolled on
#: SIGALRM).
MULTIPROC_TIMEOUT_SECONDS = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = (item.get_closest_marker("multiproc")
              or item.get_closest_marker("service"))
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.kwargs.get("timeout", MULTIPROC_TIMEOUT_SECONDS))

    def _expired(signum, frame):
        raise TimeoutError(
            f"{marker.name} test exceeded its {seconds}s timeout "
            "(a worker subprocess or service request is likely hung)")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def flor_config(tmp_path):
    """Install an isolated Flor configuration rooted in ``tmp_path``."""
    config = FlorConfig(home=tmp_path / "flor_home")
    repro.set_config(config)
    yield config
    repro.reset_config()


@pytest.fixture()
def rng():
    """A seeded NumPy random generator for deterministic model init."""
    return np.random.default_rng(0)
