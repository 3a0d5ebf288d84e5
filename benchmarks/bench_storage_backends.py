"""Storage backends + async spool: record-phase wall time comparison.

The paper's record-overhead story (Figure 11) rests on materialization
staying off the training hot path.  This benchmark measures the whole
record phase — compute + serialize + gzip + write + manifest commit — for
the synchronous baseline against the bounded async spool, on the local and
sharded backends, and records the results in ``BENCH_storage.json`` at the
repo root.

Two sections:

* ``pipeline`` — a controlled record loop at the materializer level:
  per-iteration training compute followed by a multi-MB checkpoint.  The
  training step is modeled as *accelerator-bound* (a small matmul plus
  device wait, during which the Python process idles) — the paper's
  workloads train on GPUs, and that idle window is exactly what background
  materialization overlaps with.  This is the apples-to-apples comparison
  the acceptance numbers come from.
* ``live_imgn`` — the Figure 11 default workload (miniature ImgN) recorded
  end-to-end under the sequential and spool strategies (report-only:
  live training timings are noisy at miniature scale).
* ``dedup`` — the content-addressed lifecycle acceptance number: the same
  deterministic workload recorded twice under one home must land almost
  entirely on existing blobs (physical bytes after the re-run < 1.1x the
  single-run footprint), with the achieved dedup ratio reported.
* ``delta`` — the delta-checkpoint acceptance number: a fine-tune-shaped
  workload (large frozen backbone, small trainable head) checkpointed for
  N epochs under each chunking mode.  The headline metric is physical
  growth per epoch after the first, as a fraction of the first epoch's
  footprint — chunked modes must land *well* under the 1.0x that storing
  each epoch whole costs.  Record wall per mode is reported, not asserted:
  since incompressible chunks skip the codec, what is left is a few
  milliseconds of fixed per-chunk work that no ratio of two such walls
  can gate on (``record_overhead_ratio@ckpt_heavy`` in ``perfbench/`` is
  the timing gate).

Any previously committed ``BENCH_storage.json`` acts as a regression
baseline: the delta growth ratios must not drift materially above the
committed numbers.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_storage_backends.py -q
    PYTHONPATH=src python benchmarks/bench_storage_backends.py [--smoke]

``--smoke`` shrinks the backbone and epoch count for CI-sized runs (the
acceptance thresholds are identical — delta savings are scale-free).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

import repro
from repro.config import FlorConfig
from repro.record.materializer import create_materializer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_storage.json"

#: Synthetic record loop: iterations x (training step, then checkpoint).
ITERATIONS = 10
PAYLOAD_ELEMENTS = 750_000    # ~3 MB float32 per checkpoint
COMPUTE_SIZE = 128            # matmul operand side length (CPU share)
DEVICE_SECONDS = 0.06         # accelerator-bound share of one step


def _make_payload(rng: np.random.Generator) -> np.ndarray:
    """A weight-like payload: mostly noise, so gzip does real work."""
    return rng.standard_normal(PAYLOAD_ELEMENTS).astype(np.float32)


def _training_step(operand: np.ndarray) -> np.ndarray:
    """One training step: a little CPU work, then the device-bound wait
    (the paper's workloads train on GPUs; the Python process idles while
    the accelerator runs, which is the window background materialization
    overlaps with)."""
    operand = np.tanh(operand @ operand.T / COMPUTE_SIZE)
    time.sleep(DEVICE_SECONDS)
    return operand


def _record_phase(store: CheckpointStore, materializer_name: str,
                  config: FlorConfig) -> dict:
    """One simulated record phase; returns wall time and accounting."""
    rng = np.random.default_rng(0)
    payloads = [_make_payload(rng) for _ in range(2)]
    operand = rng.standard_normal((COMPUTE_SIZE, COMPUTE_SIZE))

    materializer = create_materializer(materializer_name, store,
                                       config=config)
    start = time.perf_counter()
    for index in range(ITERATIONS):
        operand = _training_step(operand)
        snapshots = [snapshot_value("weights", payloads[index % 2])]
        materializer.submit("train", index, snapshots)
    materializer.close()  # drains the pipeline: durable + indexed
    wall_seconds = time.perf_counter() - start

    totals = store.totals()
    assert totals.checkpoints == ITERATIONS, (
        f"{materializer_name}: expected {ITERATIONS} checkpoints, got "
        f"{totals.checkpoints}")
    return {
        "wall_seconds": round(wall_seconds, 4),
        "main_thread_seconds": round(
            materializer.stats.total_main_thread_seconds, 4),
        "stored_nbytes": totals.stored_nbytes,
        "checkpoints": totals.checkpoints,
    }


def run_pipeline_comparison(home: Path) -> dict:
    """Sync vs async spool vs async spool + sharded backend."""
    config = FlorConfig(home=home, spool_workers=4, spool_queue_size=16,
                        manifest_batch_size=8)
    variants = {
        "sequential_local": ("sequential", "local"),
        "thread_local": ("thread", "local"),
        "spool_local": ("spool", "local"),
        "spool_sharded": ("spool", "sharded"),
    }
    results = {}
    for label, (materializer_name, backend_name) in variants.items():
        store = CheckpointStore(home / label, backend=backend_name,
                                num_shards=4)
        results[label] = _record_phase(store, materializer_name, config)
        results[label]["materializer"] = materializer_name
        results[label]["backend"] = backend_name
        store.close()
    return results


def run_live_imgn_comparison(home: Path) -> dict:
    """The Figure 11 default workload under sequential vs spool record."""
    from repro.record.recorder import record_source
    from repro.workloads import build_training_script

    script = build_training_script("ImgN", epochs=3)
    results = {}
    for strategy in ("sequential", "spool"):
        config = FlorConfig(home=home / f"live-{strategy}",
                            background_materialization=strategy,
                            adaptive_checkpointing=False)
        repro.set_config(config)
        try:
            recorded = record_source(script, name=f"bench-{strategy}",
                                     config=config)
        finally:
            repro.reset_config()
        results[strategy] = {
            "wall_seconds": round(recorded.wall_seconds, 4),
            "main_thread_materialization_seconds": round(
                recorded.materialization_main_thread_seconds, 4),
            "checkpoints": recorded.checkpoint_count,
        }
    return results


def run_dedup_comparison(home: Path) -> dict:
    """Record one deterministic workload twice; measure blob-plane reuse."""
    from repro.record.recorder import record_source
    from repro.storage.lifecycle import measure_storage

    script = (
        "import numpy as np\n"
        "from repro import api as flor\n"
        "\n"
        "rng = np.random.default_rng(0)\n"
        "weights = rng.standard_normal(200_000).astype('float32')\n"
        "for epoch in range(6):\n"
        "    for step in range(3):\n"
        "        weights = np.tanh(weights * 1.001)\n"
        "    flor.log('checksum', float(weights.sum()))\n")
    config = FlorConfig(home=home, adaptive_checkpointing=False)
    repro.set_config(config)
    try:
        record_source(script, name="dedup-first", config=config)
        after_first = measure_storage(home)
        record_source(script, name="dedup-rerun", config=config)
        after_second = measure_storage(home)
    finally:
        repro.reset_config()
    return {
        "checkpoints_per_run": after_first.checkpoints,
        "stored_nbytes_single_run": after_first.physical_nbytes,
        "stored_nbytes_after_rerun": after_second.physical_nbytes,
        "logical_nbytes_after_rerun": after_second.logical_nbytes,
        "rerun_stored_ratio": round(
            after_second.physical_nbytes / max(1, after_first.physical_nbytes),
            4),
        "dedup_ratio": round(after_second.dedup_ratio, 4),
    }


def run_delta_comparison(home: Path, smoke: bool = False) -> dict:
    """Fine-tune-shaped epochs under each chunking mode.

    The workload the tentpole optimizes for: a frozen backbone dominates
    the checkpoint while a small head (plus its optimizer state) is all
    that changes per epoch.  Chunked modes should pay roughly the head's
    bytes per epoch; whole-payload storage pays the backbone's every
    time.
    """
    from repro import torchlike as tl
    from repro.storage.lifecycle import measure_storage

    backbone_side = 192 if smoke else 448     # ~590 KB / ~3.2 MB of weights
    epochs = 4 if smoke else 6
    results: dict = {"epochs": epochs}
    for mode in ("off", "fixed", "cdc"):
        rng = np.random.default_rng(0)
        backbone = tl.Sequential(
            tl.Linear(backbone_side, backbone_side, rng=rng),
            tl.ReLU(),
            tl.Linear(backbone_side, backbone_side, rng=rng))
        head = tl.Linear(backbone_side, 16, rng=rng)
        optimizer = tl.SGD(head.parameters(), lr=0.05, momentum=0.9)
        mode_home = home / f"delta-{mode}"
        store = CheckpointStore(mode_home / "run", chunking=mode)
        wall = 0.0
        first_epoch_nbytes = 0
        for epoch in range(epochs):
            # One fine-tune step: the backbone is frozen, only the head
            # (and its momentum buffers) moves.
            for param in head.parameters():
                param.grad = rng.standard_normal(param.data.shape) * 0.01
            optimizer.step()
            snapshots = [snapshot_value("backbone", backbone),
                         snapshot_value("head", head),
                         snapshot_value("optimizer", optimizer),
                         snapshot_value("epoch", epoch)]
            start = time.perf_counter()
            store.put("train", epoch, snapshots)
            wall += time.perf_counter() - start
            if epoch == 0:
                first_epoch_nbytes = measure_storage(
                    mode_home).physical_nbytes
        final_nbytes = measure_storage(mode_home).physical_nbytes
        growth_ratio = ((final_nbytes - first_epoch_nbytes)
                        / max(1, (epochs - 1) * first_epoch_nbytes))
        # Read-back sanity: the last epoch reassembles to the live values.
        restored = {s.name: s for s in store.get("train", epochs - 1)}
        np.testing.assert_allclose(restored["head"].payload["weight"],
                                   head.state_dict()["weight"])
        store.close()
        results[mode] = {
            "first_epoch_nbytes": first_epoch_nbytes,
            "final_physical_nbytes": final_nbytes,
            "stored_growth_per_epoch_ratio": round(growth_ratio, 4),
            "record_wall_seconds": round(wall, 4),
        }
    off_wall = results["off"]["record_wall_seconds"]
    for mode in ("fixed", "cdc"):
        results[mode]["wall_ratio_vs_off"] = round(
            results[mode]["record_wall_seconds"] / max(1e-9, off_wall), 3)
    return results


def check_delta_regression(delta: dict, baseline: dict | None) -> list[str]:
    """Compare delta growth ratios against the committed baseline.

    Returns a list of human-readable regression messages (empty = pass).
    Absolute slack, not relative: the ratios are near zero, where relative
    comparisons amplify noise.
    """
    problems = []
    if not baseline:
        return problems
    baseline_delta = baseline.get("delta") or {}
    for mode in ("fixed", "cdc"):
        old = (baseline_delta.get(mode) or {}).get(
            "stored_growth_per_epoch_ratio")
        new = delta[mode]["stored_growth_per_epoch_ratio"]
        if old is not None and new > old + 0.15:
            problems.append(
                f"delta[{mode}] growth ratio regressed: {new} vs "
                f"committed baseline {old}")
    return problems


def load_baseline() -> dict | None:
    """The committed BENCH_storage.json, read before this run overwrites it."""
    try:
        return json.loads(RESULTS_PATH.read_text("utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def run_benchmark(home: Path, smoke: bool = False) -> dict:
    baseline = load_baseline()
    pipeline = run_pipeline_comparison(home / "pipeline")
    live = run_live_imgn_comparison(home / "live")
    dedup = run_dedup_comparison(home / "dedup")
    delta = run_delta_comparison(home / "delta", smoke=smoke)
    regressions = check_delta_regression(delta, baseline)
    sync_wall = pipeline["sequential_local"]["wall_seconds"]
    spool_wall = pipeline["spool_local"]["wall_seconds"]
    results = {
        "benchmark": "bench_storage_backends",
        "description": "record-phase wall time: sync vs async spool vs "
                       "sharded, plus live Fig-11 ImgN record, the "
                       "identical-rerun dedup ratio, and delta-checkpoint "
                       "growth per epoch under each chunking mode",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "smoke": smoke,
        "pipeline": pipeline,
        "live_imgn": live,
        "dedup": dedup,
        "delta": delta,
        "summary": {
            "async_speedup_vs_sync": round(sync_wall / spool_wall, 3),
            "async_reduces_record_wall_time": spool_wall < sync_wall,
            "dedup_rerun_stored_ratio": dedup["rerun_stored_ratio"],
            "dedup_rerun_under_1_1x": dedup["rerun_stored_ratio"] < 1.1,
            "delta_fixed_growth_per_epoch": delta["fixed"][
                "stored_growth_per_epoch_ratio"],
            "delta_cdc_growth_per_epoch": delta["cdc"][
                "stored_growth_per_epoch_ratio"],
            "delta_regressions": regressions,
        },
    }
    # Smoke runs guard against regressions but never overwrite the
    # committed full-size baseline.
    if not smoke:
        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n", "utf-8")
    return results


def test_async_spool_beats_synchronous_record(tmp_path):
    results = run_benchmark(tmp_path)
    assert_acceptance(results)


def assert_acceptance(results: dict) -> None:
    pipeline = results["pipeline"]
    print("\nRecord-phase wall seconds "
          f"({ITERATIONS} x ~3 MB checkpoints + training steps):")
    for label, row in pipeline.items():
        print(f"  {label:18s} {row['wall_seconds']:8.3f}s "
              f"(main-thread {row['main_thread_seconds']:.3f}s)")
    if not results.get("smoke"):
        print(f"Results written to {RESULTS_PATH}")

    sync = pipeline["sequential_local"]["wall_seconds"]
    spool = pipeline["spool_local"]["wall_seconds"]
    sharded = pipeline["spool_sharded"]["wall_seconds"]
    # The acceptance bar: async spooled materialization reduces
    # record-phase wall time vs the synchronous path.
    assert spool < sync, (spool, sync)
    # Sharding must not regress the async path materially.
    assert sharded < sync, (sharded, sync)
    # And the hot path itself must be near-free relative to sync.
    assert (pipeline["spool_local"]["main_thread_seconds"]
            < pipeline["sequential_local"]["main_thread_seconds"])

    # Lifecycle acceptance: re-recording an identical workload must land
    # on existing blobs — stored bytes stay under 1.1x the single run.
    dedup = results["dedup"]
    print(f"Dedup: single-run {dedup['stored_nbytes_single_run']} B, "
          f"after identical re-run {dedup['stored_nbytes_after_rerun']} B "
          f"(ratio {dedup['rerun_stored_ratio']}x, "
          f"dedup ratio {dedup['dedup_ratio']})")
    assert dedup["rerun_stored_ratio"] < 1.1, dedup
    assert dedup["dedup_ratio"] > 1.5, dedup

    # Delta-checkpoint acceptance: chunked epochs cost a small fraction
    # of a whole-payload epoch in new physical bytes and never regress vs
    # the committed baseline.
    delta = results["delta"]
    for mode in ("off", "fixed", "cdc"):
        row = delta[mode]
        print(f"Delta[{mode:5s}]: first epoch "
              f"{row['first_epoch_nbytes']} B, growth/epoch "
              f"{row['stored_growth_per_epoch_ratio']}x, record wall "
              f"{row['record_wall_seconds']}s")
    assert delta["off"]["stored_growth_per_epoch_ratio"] > 0.5, delta
    for mode in ("fixed", "cdc"):
        assert delta[mode]["stored_growth_per_epoch_ratio"] < 0.5, delta
    assert not results["summary"]["delta_regressions"], (
        results["summary"]["delta_regressions"])


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="storage backend + delta checkpoint benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: smaller backbone, fewer epochs; "
                             "checks acceptance + regression thresholds "
                             "without overwriting the committed baseline")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="flor_bench_storage_") as tmp:
        results = run_benchmark(Path(tmp), smoke=args.smoke)
        print(json.dumps(results, indent=2))
        assert_acceptance(results)
        print("acceptance thresholds: PASS")
