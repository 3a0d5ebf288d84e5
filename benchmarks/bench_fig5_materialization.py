"""Figure 5: background materialization performance (a paper baseline).

The paper materializes a 1.1 GB RTE checkpoint under several strategies
(inline cloudpickle, IPC queue, IPC-Plasma, fork), measures how long the
*main thread* stays busy, and picks one mechanism.  This reproduction
ships one materializer, the bounded async spool; the paper's baselines
live on here as compact main-thread-only measurements beside it, on a
scaled-down synthetic state dict.  The expected shape: strategies that
serialize on the main thread (inline, ipc_queue) block it longer than
those that do not (fork, spool).

    PYTHONPATH=src python -m pytest benchmarks/bench_fig5_materialization.py -q -s
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.record.materializer import create_materializer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value

PAYLOAD_MB = 8
ROUNDS = 3


def _payload():
    rng = np.random.default_rng(0)
    per_array = PAYLOAD_MB * 1024 * 1024 // 16 // 4
    return [snapshot_value("model", {
        f"layer_{index}": rng.standard_normal(per_array).astype(np.float32)
        for index in range(16)})]


def _inline(snapshots, target: Path) -> float:
    """The cloudpickle baseline: serialize and write on the main thread."""
    start = time.perf_counter()
    target.write_bytes(pickle.dumps(snapshots, pickle.HIGHEST_PROTOCOL))
    return time.perf_counter() - start


def _queue_writer(work: mp.Queue, target: str) -> None:
    Path(target).write_bytes(work.get())


def _ipc_queue(snapshots, target: Path) -> float:
    """Serialize on the main thread, ship the bytes to a writer process."""
    ctx = mp.get_context("fork")
    work = ctx.Queue()
    writer = ctx.Process(target=_queue_writer, args=(work, str(target)))
    writer.start()
    start = time.perf_counter()
    work.put(pickle.dumps(snapshots, pickle.HIGHEST_PROTOCOL))
    blocked = time.perf_counter() - start
    writer.join(timeout=60)
    return blocked


def _fork(snapshots, target: Path) -> float:
    """The paper's pick: a forked child serializes and writes copy-on-write."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            target.write_bytes(pickle.dumps(snapshots, pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    blocked = time.perf_counter() - start
    os.waitpid(pid, 0)
    return blocked


def _spool(snapshots, target: Path) -> float:
    """The product path: the bounded async spool's submit."""
    spool = create_materializer("spool", CheckpointStore(target, compress=False))
    blocked, _ = spool.submit("fig5", 0, snapshots)
    spool.close()
    assert not spool.stats.errors, spool.stats.errors
    return blocked


STRATEGIES = {"inline": _inline, "ipc_queue": _ipc_queue, "fork": _fork,
              "spool": _spool}
AVAILABLE = [name for name in STRATEGIES
             if hasattr(os, "fork") or name in ("inline", "spool")]


@pytest.mark.parametrize("strategy", AVAILABLE)
def test_fig5_main_thread_blocking_per_strategy(benchmark, tmp_path, strategy):
    """Main-thread seconds to hand off one checkpoint under each strategy."""
    snapshots = _payload()
    targets = iter(tmp_path / f"{strategy}-{i}" for i in range(1000))
    blocked = benchmark.pedantic(
        lambda: STRATEGIES[strategy](snapshots, next(targets)),
        rounds=ROUNDS, iterations=1)
    assert blocked >= 0


def test_fig5_strategy_comparison_table(tmp_path):
    """The Figure 5 comparison in one table: median of ``ROUNDS`` runs."""
    snapshots = _payload()
    medians = {name: statistics.median(
        STRATEGIES[name](snapshots, tmp_path / f"{name}-{i}")
        for i in range(ROUNDS)) for name in AVAILABLE}
    print(f"\nFigure 5: main-thread seconds to materialize {PAYLOAD_MB} MB")
    for name, seconds in medians.items():
        print(f"  {name:<10} {seconds:.4f}")
    # Strategies that avoid serializing on the main thread block it less
    # than the inline baseline.
    assert medians["spool"] <= medians["inline"]
    if "fork" in medians:
        assert medians["fork"] <= medians["inline"]
