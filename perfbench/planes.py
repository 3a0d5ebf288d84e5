"""The three planes every workload runs, with the correctness gate inline.

Each plane drives the product through its public functions only and
checks every result against ground truth: the values ``record_source``
logs when handed the *probed* source, which is by definition what record
would have logged.  A call that raises, is refused or returns a wrong
value counts as failed and keeps its wall out of the timings.

The machine this runs on has slow phases of several seconds (a pure CPU
loop slows with them), so the samples of every timing are spread over as
much of the run as the data dependencies allow: record trials alternate
with their vanilla twin, and query rounds alternate with chunks of the
service's request list.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.service import QueryService

from spans import Recorder
from workloads import (BASE_SECONDS, COLD_SHARE, SHARED_SHARE, TRUTH_OUTER,
                       Scripts, Workload, generated_scripts)

#: How often set-up is repeated; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: Share of the untraced counts a traced run keeps for queries and
#: requests, which leaves room for the layer pass in the same ``--seconds``.
TRACED_SHARE = 0.4

#: Planes stop starting optional work this far past ``--seconds``.
OVERRUN = 1.3

#: Samples a tail percentile must leave beyond itself to be reported.
TAIL_BEYOND = 10

median = statistics.median


def percentile(values, share: float) -> float:
    """Nearest-rank percentile; ``values`` non-empty."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


SOURCES = ("logged", "memo", "analysis", "replay", "missing")


def stats_sources(stats) -> dict[str, int]:
    """A QueryStats in the shape ``ExplainReport.sources()`` predicts."""
    return dict(zip(SOURCES, (
        stats.resolved_logged, stats.resolved_memo, stats.analysis_resolved,
        stats.resolved_replay, stats.missing_cells)))


@dataclass
class Request:
    kind: str               # warm | cold | shared
    name: str               # probe name; a fresh name is a cold query
    runs: tuple | None      # None asks about the whole fleet
    window: slice


@dataclass
class Run:
    """State of one benchmark run of one workload."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    nproc: int = field(
        default_factory=lambda: len(os.sched_getaffinity(0)))
    scripts: Scripts = None
    config: repro.FlorConfig = None
    truth: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    busy_rejects: int = 0
    #: Walls of correct operations by kind; ``spans_on``/``spans_off``
    #: split the same samples by whether the call ran inside a span.
    walls: dict = field(default_factory=lambda: defaultdict(list))
    spans_on: dict = field(default_factory=lambda: defaultdict(list))
    spans_off: dict = field(default_factory=lambda: defaultdict(list))
    #: What the planes learn that the metrics are computed from.
    facts: dict = field(default_factory=dict)
    #: Walls of the layer pass's calls, by span name.
    layer_walls: dict = field(default_factory=lambda: defaultdict(list))
    started: float = 0.0

    def __post_init__(self):
        self.rec = Recorder(self.trace, workload=self.workload.name)
        self._lock = threading.Lock()
        self._issued = defaultdict(int)
        scale = self.seconds / BASE_SECONDS
        shrink = scale * (TRACED_SHARE if self.trace else 1.0)
        trials = max(2, round(self.workload.trials * scale))
        self.chunks = max(2, round(self.workload.chunks * shrink))
        self.rounds = max(1, min(self.chunks,
                                 round(self.workload.rounds * shrink)))
        self.requests = max(2 * TAIL_BEYOND,
                            round(self.workload.requests * shrink))
        self.tenants = min(self.nproc, 4)
        self.run_ids = [f"{self.workload.name}-s{self.seed}-r{trial:02d}"
                        for trial in range(trials)]

    def op(self, kind: str, call, verify=None, collect=False, **attrs):
        """Run one timed operation; returns its result, or None if it failed.

        In a traced run every second operation of a kind runs outside any
        span: the same phases with and without tracing, from which
        ``trace_overhead_ratio`` is taken.

        ``collect`` runs the cyclic collector after the call, untimed.
        Record and replay sessions leave SQLite connections in reference
        cycles; a worker forked while such garbage exists inherits it, and
        when the *worker's* collector closes the connection SQLite drops
        the WAL under every other user of that manifest ("database disk
        image is malformed").  Collecting here keeps forks clean of it.
        """
        with self._lock:
            self.attempted += 1
            spans_on = self._issued[kind] % 2 == 0
            self._issued[kind] += 1
        try:
            with self.rec.span(kind, on=spans_on, **attrs):
                start = time.perf_counter()
                result = call()
                wall = time.perf_counter() - start
            problem = verify(result) if verify else None
        except Exception as error:  # noqa: BLE001 - the gate must keep going
            problem = f"{type(error).__name__}: {error}"
            with self._lock:
                self.busy_rejects += isinstance(error, repro.ServiceBusy)
            traceback.print_exc()
        if collect:
            gc.collect()
        with self._lock:
            if problem:
                self.failed += 1
                self.errors.append(f"{kind}: {problem}")
                return None
            self.walls[kind].append(wall)
            if self.trace:
                (self.spans_on if spans_on else self.spans_off)[kind].append(
                    wall)
        return result

    def check(self, what: str, ok: bool) -> None:
        """An untimed correctness assertion, counted like an operation."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.errors.append(what)

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > OVERRUN * self.seconds

    def window(self) -> slice:
        """The iterations warm and cold queries ask for."""
        return slice(self.scripts.epochs // 3, self.scripts.epochs)


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
def logged(records, name: str) -> list:
    return [record.value for record in records if record.name == name]


def set_up(run: Run, attempt: int) -> None:
    """Inputs, ground truth and one untimed pass over each product path."""
    workload = run.workload
    run.scripts = workload.scripts(run.seed, run.smoke)
    run.config = repro.FlorConfig(home=run.work / "home",
                                  query_workers=run.nproc,
                                  service_workers=run.nproc,
                                  **workload.config)

    # Ground truth: what record logs for the probed source.  An overhead
    # tolerance this small never finds a checkpoint worth its cost, so the
    # pass costs the script's compute and nothing else.
    truth_config = repro.FlorConfig(home=run.work / f"truth-{attempt}",
                                    epsilon=1e-9)
    shared = None
    for run_id in run.run_ids:
        if shared is None or run.scripts.run_seeded:
            result = repro.record_source(run.scripts.truth, name="truth",
                                         config=truth_config, run_id=run_id)
            shared = {"outer": logged(result.log_records, TRUTH_OUTER),
                      "inner": logged(result.log_records,
                                      run.scripts.inner_name)}
        run.truth[run_id] = shared

    # Warm-up: first calls pay imports and lazily built tables; a toy
    # script pushes record, both replays, explain and query through once.
    toy = generated_scripts(run.seed, epochs=3, steps=1, wait_ms=0.0,
                            frozen_elems=8, head_elems=64)
    warm_config = repro.FlorConfig(home=run.work / f"warmup-{attempt}",
                                   adaptive_checkpointing=False,
                                   query_workers=run.nproc)
    recorded = repro.record_source(toy.record, name="warmup",
                                   config=warm_config)
    repro.replay_script(recorded.run_id, new_source=toy.outer("w"),
                        num_workers=1, config=warm_config)
    repro.replay_script(recorded.run_id, new_source=toy.inner,
                        num_workers=run.nproc, config=warm_config)
    probe = dict(values="w", source=toy.outer("w"), config=warm_config)
    repro.explain(**probe)
    repro.query(**probe)
    gc.collect()


# ---------------------------------------------------------------------- #
# Record and replay plane
# ---------------------------------------------------------------------- #
def record_plane(run: Run) -> None:
    """Per trial: vanilla, record, outer-probe replay, inner-probe replay.

    Vanilla is ``exec`` of the identical source with no session open, so
    the paired ratio isolates what recording adds.  Which of the pair
    goes first alternates, so neither always runs on the warmer cache.
    Every trial leaves its run in the one home; together they are the
    fleet the other two planes ask about.
    """
    scripts = run.scripts

    def vanilla():
        exec(compile(scripts.record, "script.py", "exec"),  # noqa: S102
             {"__name__": "__main__", "__file__": "script.py"})

    def replayed(name, expected):
        def verify(result):
            if not result.succeeded:
                return "a replay worker failed"
            if not result.consistency.consistent:
                return "replay inconsistent with the record log"
            if result.values(name) != expected:
                return f"replayed {name!r} differs from ground truth"
        return verify

    for trial, run_id in enumerate(run.run_ids):
        if trial >= 2 and run.over_budget():
            del run.run_ids[trial:]
            break
        truth = run.truth[run_id]

        def record():
            return repro.record_source(scripts.record,
                                       name=run.workload.name,
                                       config=run.config, run_id=run_id)

        if trial % 2 == 0:
            run.op("vanilla", vanilla, trial=trial)
        recorded = run.op("record", record, collect=True, trial=trial)
        if trial % 2 == 1:
            run.op("vanilla", vanilla, trial=trial)
        if recorded is None:
            continue
        run.records.append(recorded)
        run.op("replay_partial", lambda: repro.replay_script(
            run_id, new_source=scripts.outer("hindsight"), num_workers=1,
            config=run.config),
            replayed("hindsight", truth["outer"]), collect=True, trial=trial)
        full = run.op("replay_full", lambda: repro.replay_script(
            run_id, new_source=scripts.inner, num_workers=run.nproc,
            config=run.config),
            replayed(scripts.inner_name, truth["inner"]), collect=True,
            trial=trial)
        if full is not None:
            run.facts.setdefault("max_worker_s", []).append(
                max(worker.wall_seconds for worker in full.worker_results))
    run.facts["storage"] = repro.storage_stats(run.config)


# ---------------------------------------------------------------------- #
# Library query plane and service plane, interleaved
# ---------------------------------------------------------------------- #
def rows_match(run: Run, result, name: str, runs, window: slice):
    """None when every requested cell equals ground truth, else why not."""
    for run_id in runs or run.run_ids:
        if result.values(name, run_id) != run.truth[run_id]["outer"][window]:
            return f"{name!r} of {run_id} differs from ground truth"
    return None


def ask(run: Run, kind: str, name: str, iterations: slice, expect=None):
    """One timed library query of probe ``name``, fully checked.

    Every row must equal ground truth, and the per-source cell counts the
    query reports must equal ``expect``; by default that is what an
    untimed ``repro.explain`` of the same query predicts beforehand.
    """
    probe = dict(values=name, source=run.scripts.outer(name),
                 iterations=iterations, config=run.config)
    predicted = expect or repro.explain(**probe).sources()

    def verify(result):
        if stats_sources(result.stats) != predicted:
            return (f"expected {predicted}, query reported "
                    f"{stats_sources(result.stats)}")
        if result.stats.replay_job_count and not predicted["replay"]:
            return "a query with nothing to replay scheduled replay jobs"
        return rows_match(run, result, name, None, iterations)
    return run.op(kind, lambda: repro.query(**probe), verify, probe=name)


def cold_round(run: Run, index: int) -> str:
    """A cold query, then the window widened to every iteration.

    A distinct probe name per round gives a source text no memo entry
    covers, so the first query is cold by construction; the second finds
    two thirds of its cells memoized.  Returns the probe's name, which
    from here on is a fully memoized query.
    """
    name = f"q{index}"
    cold = ask(run, "query_cold", name, run.window())
    overlap = ask(run, "query_overlap", name, slice(0, run.scripts.epochs))
    if index == 0 and cold is not None and overlap is not None:
        run.facts["cold_stats"] = cold.stats
        run.facts["overlap_stats"] = overlap.stats
    return name


def warm_queries(run: Run, name: str) -> None:
    """Memoized re-queries: every cell from the memo, no replay job."""
    window = run.window()
    cells = len(run.run_ids) * len(range(*window.indices(run.scripts.epochs)))
    all_memo = dict.fromkeys(SOURCES, 0) | {"memo": cells}
    for _ in range(run.workload.warm_per_chunk):
        ask(run, "query_warm", name, window, expect=all_memo)


def request_mix(run: Run) -> list[list[Request]]:
    """A seeded list of request units with fixed class counts.

    A unit is one request, or for the shared class a burst of one
    identical request per tenant: adjacent in the list, so the tenants
    issue them together and the daemon can fold them into one execution.
    Cold and shared requests ask a fresh probe for the same window over
    the same number of drawn runs, so the slow requests form one class
    and the tail sits inside it, not at the edge between two.  Counts
    per class are fixed; the seed draws the runs and the order of the
    slow units among themselves.
    """
    rng = random.Random(run.seed)
    window = run.window()
    bursts = max(1, round(SHARED_SHARE * run.requests / run.tenants))
    colds = max(1, round(COLD_SHARE * run.requests))
    warms = max(1, run.requests - colds - bursts * run.tenants)

    def fresh(kind: str, index: int) -> Request:
        runs = rng.sample(run.run_ids,
                          min(run.workload.cold_runs, len(run.run_ids)))
        return Request(kind, f"{kind[0]}{index}", tuple(sorted(runs)), window)

    slow = ([[fresh("cold", index)] for index in range(colds)]
            + [[fresh("shared", index)] * run.tenants
               for index in range(bursts)])
    rng.shuffle(slow)
    # Slow units are spaced evenly among the warm ones: whether a warm
    # request meets a slow one on the other tenant decides its latency,
    # and a free shuffle let that vary twofold from seed to seed.
    units, due, slows, total = [], 0, len(slow), len(slow) + warms
    for _ in range(total):
        due += slows
        if due >= total:
            due -= total
            units.append(slow.pop())
        else:
            units.append([Request("warm", "w", None, window)])
    return units


def closed_loop(run: Run, address: str, requests: list[Request]) -> None:
    """Tenant threads share one request list; each waits for its reply
    before taking the next request, so a slow daemon receives less load."""
    pending = iter(requests)

    def tenant(index: int) -> None:
        # retries=0: a SERVICE_BUSY refusal is a failed request here, not
        # something to hide behind the client's backoff.
        client = repro.connect(address, retries=0,
                               client_id=f"tenant-{index}")
        while True:
            with run._lock:
                request = next(pending, None)
            if request is None:
                return
            result = run.op(
                f"request.{request.kind}",
                lambda: client.query(
                    [request.name], runs=request.runs and list(request.runs),
                    iterations=request.window,
                    source=run.scripts.outer(request.name)),
                lambda result: rows_match(run, result, request.name,
                                          request.runs, request.window))
            if result is not None:
                with run._lock:
                    run.facts["jobs_needed"] += result.stats.replay_job_count

    threads = [threading.Thread(target=tenant, args=(index,))
               for index in range(run.tenants)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.facts["loop_s"] += time.perf_counter() - start


def query_and_service_planes(run: Run, while_up=None) -> None:
    """The request list in chunks, library queries between the chunks.

    Cold rounds are spaced evenly over the chunks and a few memoized
    queries follow every chunk, so each timing's samples cover the whole
    stretch instead of one short window of it.

    The daemon is started first and warmed by one request while nothing
    else is in flight: it forks its worker pool on its first replay job,
    and a fork taken while other handler threads are mid-request has hung
    or corrupted a manifest in sizing runs.  ``while_up(run, service)``
    runs last with the daemon still listening; the traced pass measures
    the service layer there.
    """
    gc.collect()
    start = time.perf_counter()
    with run.rec.span("service.start"):
        service = QueryService(
            config=run.config, workers=run.nproc,
            socket_path=os.path.relpath(run.work / "service.sock")).start()
    run.facts["service_start_s"] = time.perf_counter() - start
    run.facts.update(jobs_needed=0, loop_s=0.0)
    try:
        warm = repro.connect(service.address, client_id="warmup", retries=0)
        run.check("service warm-up query", rows_match(run, warm.query(
            ["w"], iterations=run.window(), source=run.scripts.outer("w")),
            "w", None, run.window()) is None)

        units = request_mix(run)
        jobs_before = len(service.pool.ledger())
        rounds = 0
        for chunk in range(run.chunks):
            if chunk >= 2 and run.over_budget():
                break
            if chunk * run.rounds // run.chunks >= rounds:
                memoized = cold_round(run, rounds)
                rounds += 1
            closed_loop(run, service.address, [
                request for unit in units[len(units) * chunk // run.chunks:
                                          len(units) * (chunk + 1)
                                          // run.chunks]
                for request in unit])
            warm_queries(run, memoized)
        run.facts["ledger_jobs"] = len(service.pool.ledger()) - jobs_before
        if while_up is not None:
            while_up(run, service)
    finally:
        start = time.perf_counter()
        with run.rec.span("service.drain"):
            drained = service.shutdown(drain_seconds=30.0)
        run.facts["service_drain_s"] = time.perf_counter() - start
        run.check("service drained cleanly", drained)


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    kilobytes = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kilobytes / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple]:
    """``{name: (value, unit, samples)}`` for every end-to-end metric.

    A timing is the median of its samples.  The request tail is the
    latency that exactly ``TAIL_BEYOND`` requests exceed: the highest
    percentile the sample supports (p96 at 240 requests, p83 at 60).
    """
    walls = run.walls
    ratios = [record / vanilla for record, vanilla
              in zip(walls["record"], walls["vanilla"])]
    storage = run.facts["storage"]
    requests = sorted(wall * 1e3 for kind, samples in walls.items()
                      if kind.startswith("request.") for wall in samples)

    def one(value, unit):
        return value, unit, [value]

    def mid(samples, unit):
        return median(samples), unit, list(samples)

    return {
        "setup_s": one(setup_s, "s"),
        "record_wall_s": mid(walls["record"], "s"),
        "record_overhead_ratio": mid(ratios, "x"),
        "stored_bytes_ratio": one(
            storage.physical_nbytes / storage.logical_nbytes, "x"),
        "replay_partial_wall_s": mid(walls["replay_partial"], "s"),
        "replay_full_wall_s": mid(walls["replay_full"], "s"),
        "query_cold_wall_s": mid(walls["query_cold"], "s"),
        "request_tail_ms": (requests[-TAIL_BEYOND - 1], "ms", requests),
        "requests_per_s": one(len(requests) / run.facts["loop_s"], "1/s"),
        "peak_rss_mb": one(peak_rss_mb(), "MB"),
    }
