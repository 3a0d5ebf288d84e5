"""The repo's one benchmark: four workloads, every metric by name.

One run of one workload, the contract ``BENCHMARK.json`` describes::

    python3 perfbench/harness.py --workload W --seed N --seconds S --trace 0|1

prints a table of every metric with unit, quartiles and sample count and,
as its last line, one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (taken in
a traced pass that also writes ``perfbench/results/trace_<W>.json``) with
``--trace 1``.  It exits non-zero when any result was wrong.

Without ``--workload`` the same runs are started as child processes:

    python3 perfbench/harness.py [--trace] [--smoke]   every workload once
    python3 perfbench/harness.py --repeat 2           the suite twice on one
        seed; fails when two medians differ by more than the metric's bound
        or a count that must repeat exactly does not
    python3 perfbench/harness.py --spread 10          ten seeds per workload;
        prints each metric's quartile spread against its bound

``--smoke`` shrinks scripts and counts to a few seconds per workload, marks
the output ``smoke`` and writes no result files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 3

#: A run that is still going after this many seconds is abandoned with an
#: error: the driver allows 180, and a fork taken at the wrong moment can
#: leave a replay worker waiting for ever.
WATCHDOG_SECONDS = 150

#: Counts that must come out identical on two runs of one seed, on the
#: workload that checkpoints every epoch.  Where checkpointing is adaptive
#: the checkpointed epochs, and with them the iterations a cold query
#: replays, move by one or two with the timing of the record.
EXACT_ON = "ckpt_heavy"
EXACT = ("query.replay_jobs", "query.replayed_iterations",
         "stored_bytes_ratio")


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_product() -> float:
    """Pin BLAS, put this checkout's ``src`` first, import; returns seconds.

    Unpinned BLAS threads fight the replay workers for the same cores and
    made 2-worker replay take 16-22 s instead of 2.4-3.6 s; the pins are
    set before numpy loads so forked workers inherit them.
    """
    for name in BLAS_PINS:
        os.environ[name] = "1"
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no product source at {source}; run "
                         "from a checkout of the repository")
    sys.path.insert(0, str(source))
    start = time.perf_counter()
    import repro
    import repro.service  # noqa: F401 - part of what a user imports
    import repro.workloads  # noqa: F401
    seconds = time.perf_counter() - start
    if Path(repro.__file__).resolve().parents[1] != source.resolve():
        raise SystemExit("perfbench: imported repro from "
                         f"{repro.__file__}, not from {source}")
    return seconds


def fingerprint(args) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "blas_env": {name: os.environ.get(name) for name in BLAS_PINS},
            "git_commit": commit, "seed": args.seed,
            "seconds": args.seconds}


def quartiles(samples) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    first, _, third = statistics.quantiles(samples, n=4)
    return first, third


# ---------------------------------------------------------------------- #
# One run of one workload, in this process
# ---------------------------------------------------------------------- #
def measure(args, work: Path):
    """Set up, run the planes (and the layer pass); ``(run, metrics, s)``.

    ``metrics`` maps every name ``BENCHMARK.json`` declares for this kind
    of run to ``(value, unit, samples)``.
    """
    import_s = load_product()
    from layers import layer_pass, warm_path_layer
    from planes import (SETUP_REPEATS, Run, end_to_end,
                        query_and_service_planes, record_plane, set_up)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), args.smoke, work)
    setups = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        set_up(run, attempt)
        setups.append(time.perf_counter() - start)
    run.started = time.perf_counter()
    record_plane(run)
    query_and_service_planes(run, warm_path_layer if run.trace else None)
    measured_s = time.perf_counter() - run.started
    if not run.trace:
        # Set-up is everything a run pays before its planes can start:
        # imports once, the repeated part as its median, the daemon start.
        setup_s = (import_s + statistics.median(setups)
                   + run.facts["service_start_s"])
        return run, end_to_end(run, setup_s), measured_s
    metrics = {name: (value, unit, [value])
               for name, (value, unit) in layer_pass(run).items()}
    if not args.smoke:
        run.rec.write_chrome_trace(RESULTS / f"trace_{args.workload}.json")
    return run, metrics, measured_s


def run_workload(args) -> int:
    def abandon(_signal, _frame):
        raise TimeoutError(f"perfbench: still running after "
                           f"{WATCHDOG_SECONDS} s")
    signal.signal(signal.SIGALRM, abandon)
    signal.alarm(WATCHDOG_SECONDS)
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run, metrics, measured_s = measure(args, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # unless another run is using it
        except OSError:
            pass

    declared = contract()["per_layer" if run.trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit("perfbench: BENCHMARK.json and the harness name "
                         "different metrics: "
                         f"{sorted(set(names) ^ set(metrics))}")

    print(f"# {args.workload} seed={args.seed} trace={int(run.trace)}"
          f"{' smoke' if args.smoke else ''}: measured {measured_s:.1f} s, "
          f"{run.attempted} operations, {run.failed} failed")
    print(f"{'metric':34} {'value':>12} {'unit':6} {'q1':>12} {'q3':>12} "
          f"{'n':>4}")
    table = {}
    for name in names:
        value, unit, samples = metrics[name]
        first, third = quartiles(samples)
        table[name] = {"value": value, "unit": unit, "q1": first,
                       "q3": third, "n": len(samples)}
        print(f"{name:34} {value:12.5g} {unit:6} {first:12.5g} "
              f"{third:12.5g} {len(samples):4d}")
    busy = run.rec.self_seconds()
    if busy:
        print("# busy (self) seconds per span name, largest first")
        for name, seconds in sorted(busy.items(), key=lambda item: -item[1]):
            print(f"{name:34} {seconds:12.4f} s")
    for error in run.errors[:20]:
        print(f"# FAILED {error}")

    if not args.smoke:
        RESULTS.mkdir(exist_ok=True)
        document = {
            "workload": args.workload, "why": run.workload.why,
            "trace": int(run.trace), "fingerprint": fingerprint(args),
            "sizes": {"trials": len(run.run_ids),
                      "epochs": run.scripts.epochs, "rounds": run.rounds,
                      "chunks": run.chunks,
                      "warm_per_chunk": run.workload.warm_per_chunk,
                      "requests": run.requests, "tenants": run.tenants,
                      "replay_workers": run.nproc},
            "measured_seconds": measured_s, "attempted": run.attempted,
            "failed": run.failed, "errors": run.errors, "metrics": table,
            "operations": {kind: {"n": len(walls),
                                  "median_s": statistics.median(walls),
                                  "walls_s": walls}
                           for kind, walls in sorted(run.walls.items())},
            "self_seconds": busy,
        }
        (RESULTS / f"{args.workload}.trace{int(run.trace)}.json").write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8")

    last = {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                        for name, row in table.items()}}
    if args.smoke:
        last["smoke"] = True
    print(json.dumps(last))
    return 0 if run.failed == 0 else 1


# ---------------------------------------------------------------------- #
# Many runs, as child processes
# ---------------------------------------------------------------------- #
def child(workload: str, seed: int, args, trace: int) -> dict:
    """One run in a fresh interpreter, as the driver starts it."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        print(done.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def suite(args, seed: int) -> tuple[dict, bool]:
    """Every workload once; ``{(workload, metric): value}``."""
    values, correct = {}, True
    for workload in WORKLOADS:
        for trace in ((0, 1) if args.trace or args.repeat else (0,)):
            result = child(workload, seed, args, trace)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values[workload, name] = metric["value"]
    return values, correct


def bounds() -> dict[str, float]:
    return {metric["name"]: metric["bound"]
            for metric in contract()["end_to_end"]}


def repeat(args) -> int:
    """The suite ``--repeat`` times on one seed; the runs must agree."""
    runs, ok = [], True
    for _ in range(args.repeat):
        values, correct = suite(args, args.seed)
        runs.append(values)
        ok &= correct
    limit = bounds()
    print(f"\n{'workload':16} {'metric':28} "
          + " ".join(f"{'run ' + str(index):>12}"
                     for index in range(len(runs))) + "   differ  bound")
    for key in runs[0]:
        workload, name = key
        row = [values.get(key, float("nan")) for values in runs]
        exact = workload == EXACT_ON and name in EXACT
        if name not in limit and not exact:
            continue
        differ = (max(row) - min(row)) / abs(min(row)) if min(row) else 0.0
        allowed = 0.0 if exact else limit[name]
        verdict = "" if differ <= allowed else "  FAIL"
        ok &= not verdict
        print(f"{workload:16} {name:28} "
              + " ".join(f"{value:12.5g}" for value in row)
              + f" {differ:8.4f} {allowed:6.2f}{verdict}")
    print("repeat: runs agree" if ok else "repeat: FAILED")
    return 0 if ok else 1


def spread(args) -> int:
    """``--spread`` seeds per workload; quartile spread against the bound."""
    limit, ok = bounds(), True
    for workload in WORKLOADS:
        results = [child(workload, args.seed + index, args, 0)
                   for index in range(args.spread)]
        ok &= all(result["correct"] for result in results)
        print(f"\n{workload:16} {'metric':24} {'median':>12} {'spread':>8} "
              f"{'bound':>6}")
        for name in limit:
            row = [result["metrics"][name]["value"] for result in results
                   if name in result["metrics"]]
            if len(row) < 2:
                continue
            first, third = quartiles(row)
            middle = statistics.median(row)
            share = (third - first) / middle
            verdict = ("  FAIL" if share > limit[name] and name != "setup_s"
                       else "  above a third" if share > limit[name] / 3
                       else "")
            ok &= "FAIL" not in verdict
            print(f"{workload:16} {name:24} {middle:12.5g} {share:8.4f} "
                  f"{limit[name]:6.2f}{verdict}")
    print("spread: within bounds" if ok else "spread: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced layer pass")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else contract()["run_seconds"])
    if args.workload:
        return run_workload(args)
    if args.repeat:
        return repeat(args)
    if args.spread:
        return spread(args)
    _, correct = suite(args, args.seed)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
