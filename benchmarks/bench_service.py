"""The multi-tenant query service vs direct library queries.

The service's pitch is not that one query gets faster — it pays a socket
round-trip over the library call — but that *many tenants* get cheaper:
identical concurrent queries coalesce onto one execution, replay spans
are scheduled fairly from one bounded pool, and the record path never
touches the daemon.  This benchmark measures:

* ``single_query``    — one cold query through the library vs through
  the service (the protocol tax, honestly reported);
* ``dedup``           — N concurrent identical tenants through the
  service: one set of replay jobs in the ledger, wall compared against
  the N-times-sequential naive estimate;
* ``memoized``        — a memoize-on query then the service re-query:
  zero replay jobs;
* ``record_overhead`` — a record session beside a daemon busy replaying
  vs the same session alone.

Results land in ``BENCH_service.json`` at the repo root.

Run with::

    PYTHONPATH=src python benchmarks/bench_service.py          # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke  # CI
    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.config import FlorConfig
from repro.record.recorder import record_source
from repro.service import QueryService

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Full shape: replay heavy enough that dedup and fairness matter.
FULL = {"epochs": 16, "iter_seconds": 0.05, "clients": 6}
#: Smoke shape: seconds-fast, correctness-focused.
SMOKE = {"epochs": 8, "iter_seconds": 0.01, "clients": 3}


def build_script(epochs: int, iter_seconds: float, probed: bool) -> str:
    """A run whose probe value must replay (never logged at record time).

    The sleep sits at epoch level, outside the checkpointed block, so it
    is paid at record time and re-paid by every replayed iteration.
    """
    lines = [
        "import time",
        "from repro import api as flor",
        "state = 0.0",
        f"for epoch in range({epochs}):",
        "    for _step in range(1):",
        "        state = state + epoch * 0.5",
        f"    time.sleep({iter_seconds})",
        '    flor.log("loss", 1.0 / (epoch + 1))',
    ]
    if probed:
        lines.append('    flor.log("state", state)')
    return "\n".join(lines) + "\n"


def timed_record(config: FlorConfig, shape: dict) -> tuple[str, float]:
    script = build_script(shape["epochs"], shape["iter_seconds"],
                          probed=False)
    start = time.perf_counter()
    run_id = record_source(script, config=config).run_id
    return run_id, time.perf_counter() - start


def service_query(address: str, client_id: str, probe: str, **kwargs):
    client = repro.connect(address, client_id=client_id)
    return client.query(["state"], source=probe, **kwargs)


def run_benchmark(home: Path, smoke: bool = False) -> dict:
    shape = SMOKE if smoke else FULL
    config = FlorConfig(home=home)
    repro.set_config(config)
    try:
        _run_id, record_alone = timed_record(config, shape)
        probe = build_script(shape["epochs"], shape["iter_seconds"],
                             probed=True)

        # Library baseline: one cold query, no daemon involved.
        start = time.perf_counter()
        library = repro.query(values="state", source=probe,
                              memoize=False, config=config)
        library_wall = time.perf_counter() - start
        assert library.stats.resolved_replay == shape["epochs"]

        service = QueryService(config=config, workers=2).start()
        try:
            # Protocol tax: the identical cold query through the socket.
            start = time.perf_counter()
            via_service = service_query(service.address, "solo", probe,
                                        memoize=False)
            service_wall = time.perf_counter() - start
            assert via_service.stats.resolved_replay == shape["epochs"]
            solo_jobs = via_service.stats.replay_job_count

            # Dedup: N concurrent identical tenants, one execution.
            jobs_before = len(service.pool.ledger())
            walls: dict[str, float] = {}
            errors: list[BaseException] = []

            def issue(tag: str):
                try:
                    started = time.perf_counter()
                    result = service_query(service.address, tag, probe,
                                           memoize=False)
                    walls[tag] = time.perf_counter() - started
                    assert result.stats.requested_cells == shape["epochs"]
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=issue,
                                        args=(f"tenant-{index}",))
                       for index in range(shape["clients"])]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            dedup_wall = time.perf_counter() - start
            assert not errors, errors
            dedup_jobs = len(service.pool.ledger()) - jobs_before
            naive_wall = shape["clients"] * library_wall

            # Memoized re-query through the service: zero replay jobs.
            service_query(service.address, "warm", probe, memoize=True)
            memoized = service_query(service.address, "warm", probe,
                                     memoize=True)
            assert memoized.stats.replay_job_count == 0

            # Record beside the busy daemon: the record path never goes
            # through the service, so the walls should be near-identical.
            busy = threading.Thread(
                target=service_query,
                args=(service.address, "background", probe),
                kwargs={"memoize": False})
            busy.start()
            _run2, record_beside = timed_record(config, shape)
            busy.join()
        finally:
            service.shutdown(drain_seconds=30.0)
    finally:
        repro.reset_config()

    results = {
        "benchmark": "bench_service",
        "description": "multi-tenant query service vs direct library "
                       "queries: protocol tax, dedup win, memo hit, "
                       "record-path isolation",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "smoke": smoke,
        "epochs": shape["epochs"],
        "clients": shape["clients"],
        "single_query": {
            "library_seconds": round(library_wall, 4),
            "service_seconds": round(service_wall, 4),
            "protocol_tax_seconds": round(service_wall - library_wall, 4),
        },
        "dedup": {
            "concurrent_clients": shape["clients"],
            "wall_seconds": round(dedup_wall, 4),
            "naive_sequential_seconds": round(naive_wall, 4),
            "replay_jobs": dedup_jobs,
            "jobs_for_one_client": solo_jobs,
            "speedup_vs_naive": round(naive_wall / max(dedup_wall, 1e-9),
                                      3),
        },
        "record_overhead": {
            "alone_seconds": round(record_alone, 4),
            "beside_busy_daemon_seconds": round(record_beside, 4),
            "ratio": round(record_beside / max(record_alone, 1e-9), 3),
        },
    }
    if not smoke:
        RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n",
                                "utf-8")
    return results


def test_service_dedups_and_isolates_record(tmp_path):
    results = run_benchmark(tmp_path, smoke=False)
    print("\nquery service vs library (wall seconds):")
    single = results["single_query"]
    print(f"  single cold query: library {single['library_seconds']:.3f}s"
          f" | service {single['service_seconds']:.3f}s")
    dedup = results["dedup"]
    print(f"  {dedup['concurrent_clients']} identical tenants: "
          f"{dedup['wall_seconds']:.3f}s vs naive "
          f"{dedup['naive_sequential_seconds']:.3f}s "
          f"({dedup['replay_jobs']} replay jobs)")
    print(f"Results written to {RESULTS_PATH}")
    # N identical tenants must cost ONE execution's jobs...
    assert dedup["replay_jobs"] == dedup["jobs_for_one_client"], results
    # ...and beat re-running the query once per tenant.
    assert dedup["speedup_vs_naive"] > 1.5, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast correctness pass (no wall-clock "
                             "assertion, no BENCH_service.json)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="flor_bench_service_") as tmp:
        results = run_benchmark(Path(tmp), smoke=args.smoke)
        print(json.dumps(results, indent=2))
        dedup = results["dedup"]
        if dedup["replay_jobs"] != dedup["jobs_for_one_client"]:
            return 1
        if not args.smoke and dedup["speedup_vs_naive"] <= 1.5:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
