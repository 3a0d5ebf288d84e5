"""Hindsight query engine vs per-run manual replay.

The query engine's pitch is that asking for values across many runs should
cost less than driving replay by hand: the planner reads what was logged,
restores the nearest aligned checkpoints, replays only uncovered segments
(parallel across runs), and memoizes what it computed so the next query is
a storage read.  This benchmark records several runs under sparse adaptive
checkpointing and measures, for 1/2/4 query workers:

* ``manual``   — the baseline a developer would run today: one full
  ``replay_script`` per run, sequentially, then picking out the values;
* ``cold``     — one ``repro.query`` across all runs, empty memo;
* ``memoized`` — the identical query again, served from the write-back.

Results land in ``BENCH_query.json`` at the repo root.

Run with::

    PYTHONPATH=src python benchmarks/bench_hindsight_query.py          # full
    PYTHONPATH=src python benchmarks/bench_hindsight_query.py --smoke  # CI
    PYTHONPATH=src python -m pytest benchmarks/bench_hindsight_query.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import textwrap
import time
from pathlib import Path

import repro
from repro import telemetry
from repro.config import FlorConfig
from repro.query.catalog import RunCatalog
from repro.record.recorder import record_source
from repro.replay.replayer import replay_script

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_query.json"

WORKER_COUNTS = (1, 2, 4)

#: Full shape: three runs, a per-iteration device wait that dominates, and
#: an overhead budget tight enough for genuinely sparse checkpoints.
FULL = {"runs": 3, "epochs": 16, "iter_seconds": 0.05,
        "payload_elements": 200_000, "epsilon": 0.2,
        "query_slice": (6, 16)}
#: Smoke shape: seconds-fast, correctness-focused.
SMOKE = {"runs": 3, "epochs": 6, "iter_seconds": 0.004,
         "payload_elements": 10_000, "epsilon": 0.2,
         "query_slice": (2, 6)}


def build_script(epochs: int, iter_seconds: float, payload_elements: int,
                 seed: int) -> str:
    """A run whose probe value depends on every preceding iteration."""
    return textwrap.dedent(f"""
        import time

        import numpy as np
        from repro import api as flor

        rng = np.random.default_rng({seed})
        state = rng.standard_normal({payload_elements}).astype('float32')

        for epoch in range({epochs}):
            for _step in range(1):
                time.sleep({iter_seconds})
                state = np.roll(state, 1) * 0.999 + float(epoch + 1) * 1e-3
            flor.log("fingerprint", float(state[:64].sum()))
    """)


def probe_script(script: str) -> str:
    return script.replace(
        'flor.log("fingerprint", float(state[:64].sum()))',
        'flor.log("fingerprint", float(state[:64].sum()))\n'
        '    flor.log("state_sum", float(state.sum()))')


def record_runs(home: Path, shape: dict,
                trace: bool = False) -> list[tuple[str, str]]:
    """Record the fleet under genuine adaptive (sparse) checkpointing."""
    # The wall-clock numbers of a --trace run are not comparable to the
    # baseline.
    config = FlorConfig(home=home, epsilon=shape["epsilon"],
                        adaptive_checkpointing=True,
                        telemetry=trace)
    repro.set_config(config)
    recorded = []
    try:
        for index in range(shape["runs"]):
            script = build_script(shape["epochs"], shape["iter_seconds"],
                                  shape["payload_elements"], seed=index)
            result = record_source(script, name=f"bench-q{index}",
                                   config=config)
            recorded.append((result.run_id, script))
    finally:
        repro.reset_config()
    return recorded


def manual_baseline(recorded, home: Path, shape: dict,
                    num_workers: int) -> dict:
    """Per-run manual replay: what a developer does without the engine."""
    config = FlorConfig(home=home, epsilon=shape["epsilon"])
    lo, hi = shape["query_slice"]
    start = time.perf_counter()
    values = {}
    for run_id, script in recorded:
        replay = replay_script(run_id, new_source=probe_script(script),
                               num_workers=num_workers, config=config)
        assert replay.succeeded
        values[run_id] = replay.values("state_sum")[lo:hi]
    return {"wall_seconds": round(time.perf_counter() - start, 4),
            "values": values}


def engine_query(recorded, home: Path, shape: dict, num_workers: int,
                 fresh_memo: bool) -> dict:
    config = FlorConfig(home=home, epsilon=shape["epsilon"],
                        query_workers=num_workers)
    if fresh_memo:
        _drop_memo_entries(recorded, config)
    lo, hi = shape["query_slice"]
    # Per-run sources differ only by seed; the probe is shared, so pass the
    # first run's probed script (identical text for every run here).
    source = probe_script(recorded[0][1])
    runs = [run_id for run_id, _ in recorded]
    # EXPLAIN is pure planning: its per-source cell counts must predict
    # exactly what the query that follows resolves from each source.
    report = repro.explain(values="state_sum", runs=runs,
                           iterations=slice(lo, hi), source=source,
                           config=config)
    start = time.perf_counter()
    result = repro.query(values="state_sum", runs=runs,
                         iterations=slice(lo, hi), source=source,
                         config=config)
    wall = time.perf_counter() - start
    predicted = report.sources()
    actual = {"logged": result.stats.resolved_logged,
              "memo": result.stats.resolved_memo,
              "analysis": result.stats.analysis_resolved,
              "replay": result.stats.resolved_replay,
              "missing": result.stats.missing_cells}
    assert predicted == actual, \
        f"explain {predicted} disagrees with query stats {actual}"
    return {
        "wall_seconds": round(wall, 4),
        "replay_jobs": result.stats.replay_job_count,
        "replayed_iterations": result.stats.replayed_iterations,
        "resolved": {"logged": result.stats.resolved_logged,
                     "memo": result.stats.resolved_memo,
                     "replay": result.stats.resolved_replay},
        "values": {run_id: result.values("state_sum", run_id)
                   for run_id, _ in recorded},
    }


def _drop_memo_entries(recorded, config: FlorConfig) -> None:
    """Reset write-back state so each worker count starts cold."""
    from repro.query.memo import MEMO_KEY_PREFIX
    from repro.storage.checkpoint_store import CheckpointStore
    for run_id, _script in recorded:
        store = CheckpointStore(config.run_dir(run_id))
        for key in store.metadata_keys(MEMO_KEY_PREFIX):
            store.set_metadata(key, None)
        store.close()


def run_benchmark(home: Path, smoke: bool = False,
                  trace_path: Path | None = None) -> dict:
    shape = SMOKE if smoke else FULL
    if trace_path is not None:
        # One process-wide flight recorder across record + every query
        # variant; the document lands at trace_path for repro.trace.
        telemetry.configure(enabled=True, capacity=65_536)
        telemetry.get_metrics().configure(enabled=True)
    recorded = record_runs(home, shape, trace=trace_path is not None)
    catalog = RunCatalog.open(FlorConfig(home=home))
    sparse = all(len(entry.aligned_iterations) < entry.main_loop_total
                 for entry in catalog)

    variants = {}
    for workers in WORKER_COUNTS:
        manual = manual_baseline(recorded, home, shape, workers)
        cold = engine_query(recorded, home, shape, workers, fresh_memo=True)
        memoized = engine_query(recorded, home, shape, workers,
                                fresh_memo=False)
        for run_id, _ in recorded:
            assert cold.get("values", {}).get(run_id) == \
                manual["values"][run_id], f"query != manual for {run_id}"
            assert memoized["values"][run_id] == manual["values"][run_id]
        assert memoized["replay_jobs"] == 0, "memoized re-query scheduled jobs"
        variants[str(workers)] = {
            "manual_sequential": {k: v for k, v in manual.items()
                                  if k != "values"},
            "cold_query": {k: v for k, v in cold.items() if k != "values"},
            "memoized_query": {k: v for k, v in memoized.items()
                               if k != "values"},
        }

    best = min(variants.values(),
               key=lambda row: row["cold_query"]["wall_seconds"])
    results = {
        "benchmark": "bench_hindsight_query",
        "description": "multi-run hindsight query vs per-run manual replay "
                       "under sparse adaptive checkpointing, plus the "
                       "memoized re-query",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "smoke": smoke,
        "runs": shape["runs"],
        "epochs": shape["epochs"],
        "query_slice": list(shape["query_slice"]),
        "sparse_checkpoints": sparse,
        "workers": variants,
        "summary": {
            "cold_speedup_vs_manual": round(
                best["manual_sequential"]["wall_seconds"]
                / best["cold_query"]["wall_seconds"], 3),
            "memo_speedup_vs_cold": round(
                best["cold_query"]["wall_seconds"]
                / max(best["memoized_query"]["wall_seconds"], 1e-9), 3),
        },
    }
    if trace_path is not None:
        document = telemetry.current_document(
            meta={"benchmark": "bench_hindsight_query", "smoke": smoke})
        trace_path.write_text(json.dumps(document, indent=2) + "\n",
                              encoding="utf-8")
    if not smoke:
        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n", "utf-8")
    return results


def test_query_engine_beats_manual_replay(tmp_path):
    results = run_benchmark(tmp_path, smoke=False)
    print("\nhindsight query vs manual replay (wall seconds):")
    for workers, row in results["workers"].items():
        print(f"  {workers} worker(s): manual "
              f"{row['manual_sequential']['wall_seconds']:8.3f}s | cold "
              f"{row['cold_query']['wall_seconds']:8.3f}s | memoized "
              f"{row['memoized_query']['wall_seconds']:8.3f}s")
    print(f"Results written to {RESULTS_PATH}")
    assert results["summary"]["cold_speedup_vs_manual"] > 1.0, results
    assert results["summary"]["memo_speedup_vs_cold"] >= 5.0, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast correctness pass (no wall-clock "
                             "assertion, no BENCH_query.json)")
    parser.add_argument("--trace", metavar="FILE", type=Path,
                        help="run with the flight recorder on and write "
                             "the telemetry document to FILE (render it "
                             "with python -m repro.trace FILE)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="flor_bench_query_") as tmp:
        results = run_benchmark(Path(tmp), smoke=args.smoke,
                                trace_path=args.trace)
        print(json.dumps(results, indent=2))
        if not args.smoke and (
                results["summary"]["cold_speedup_vs_manual"] <= 1.0
                or results["summary"]["memo_speedup_vs_cold"] < 5.0):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
