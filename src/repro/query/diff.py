"""Cross-run drift diff: where did two runs start to disagree?

``repro.diff(run_a, run_b, values)`` answers the hindsight-debugging
question one level above a value fetch: not "what was the loss at epoch
40" but "at which iteration did these two runs' losses *first* diverge".
Materializing every iteration of both runs and comparing would cost O(n)
replay; this module locates the first diverging iteration per value with
O(log n) work instead, layered entirely on the existing machinery:

* **logged scan** — a value both runs logged at record time resolves by
  scanning the two record logs; zero replay jobs.
* **digest pre-narrowing** — checkpoint payloads are content-addressed
  and their compression is deterministic, so *equal digests mean equal
  state*: comparing the two runs' manifest digests at common aligned
  iterations brackets the first **state** divergence with free metadata
  reads, no payload I/O, no replay.
* **adaptive bisection** — within the bracket (or over the whole common
  range when digests can't help) the first **value** divergence is found
  by bisection, each probe a single-iteration :func:`repro.query.query`
  against both runs — at most two span-replay jobs per probe, fewer when
  memoized, planned and executed by the existing planner/executor and
  written back to the memo cache so repeated diffs get cheaper.

Bisection assumes drift is *persistent*: once the trajectories diverge
on a value, they stay diverged (true of the training-drift failures the
paper debugs — a bad seed, a data skew, a changed hyperparameter).  A
value that oscillates back into agreement may bisect to a later
divergent iteration; the report's ``method`` column says how each answer
was obtained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .. import telemetry
from ..config import FlorConfig, get_config
from ..exceptions import QueryError
from ..record.logger import read_log
from ..storage.checkpoint_store import CheckpointStore
from ..utils.timing import monotonic
from .api import query
from .catalog import RunCatalog, RunEntry
from .dataframe import ReplayJobRecord

__all__ = ["ValueDrift", "DiffStats", "DiffResult", "diff"]


@dataclass(frozen=True)
class ValueDrift:
    """Drift verdict for one value name across the two runs."""

    name: str
    #: ``"diverged"`` | ``"equal"`` | ``"no_overlap"`` | ``"unresolved"``.
    status: str
    #: First common iteration where the value differs (None unless diverged).
    first_divergence: int | None = None
    #: Last common iteration where the value still agreed.
    last_equal: int | None = None
    #: The two values at ``first_divergence``.
    value_a: object = None
    value_b: object = None
    #: The shared value at ``last_equal``.
    baseline_a: object = None
    baseline_b: object = None
    #: How the answer was found: ``"logged-scan"``, ``"digest+bisect"``
    #: or ``"bisect"``.
    method: str = ""
    #: Single-iteration value probes this value's search issued.
    probes: int = 0


@dataclass
class DiffStats:
    """Accounting of one drift diff (the testable job-budget ledger)."""

    run_a: str = ""
    run_b: str = ""
    #: Iterations recorded by both runs (the diffable domain).
    common_iterations: int = 0
    #: First common aligned iteration whose checkpoint digests differ
    #: (state divergence), found by free manifest comparison; None when
    #: digests never diverge or were not comparable.
    state_divergence: int | None = None
    #: Last common aligned iteration whose checkpoint digests match.
    last_state_match: int | None = None
    #: Aligned iterations whose digests were compared (all free).
    digest_comparisons: int = 0
    #: Single-iteration probe queries issued across all values.
    probe_queries: int = 0
    #: Every replay job those probes scheduled — the ledger the O(log n)
    #: bound is asserted against.
    replay_jobs: list[ReplayJobRecord] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def replay_job_count(self) -> int:
        return len(self.replay_jobs)

    def summary(self) -> str:
        state = ("state diverged @%s" % self.state_divergence
                 if self.state_divergence is not None else "state agreed")
        return (f"diff({self.run_a} vs {self.run_b}): "
                f"{self.common_iterations} common iterations, {state} "
                f"({self.digest_comparisons} digest comparisons), "
                f"{self.probe_queries} probes / "
                f"{self.replay_job_count} replay job(s); "
                f"{self.total_seconds:.3f}s")

    def to_payload(self) -> dict:
        """Plain-dict form (JSON-ready, telemetry-document friendly)."""
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "common_iterations": self.common_iterations,
            "state_divergence": self.state_divergence,
            "last_state_match": self.last_state_match,
            "digest_comparisons": self.digest_comparisons,
            "probe_queries": self.probe_queries,
            "total_seconds": self.total_seconds,
            "replay_jobs": [job.to_dict() for job in self.replay_jobs],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DiffStats":
        """Inverse of :meth:`to_payload`."""
        state = payload.get("state_divergence")
        last_match = payload.get("last_state_match")
        return cls(
            run_a=payload.get("run_a", ""),
            run_b=payload.get("run_b", ""),
            common_iterations=int(payload.get("common_iterations", 0)),
            state_divergence=int(state) if state is not None else None,
            last_state_match=(int(last_match)
                              if last_match is not None else None),
            digest_comparisons=int(payload.get("digest_comparisons", 0)),
            probe_queries=int(payload.get("probe_queries", 0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            replay_jobs=[ReplayJobRecord.from_dict(row)
                         for row in payload.get("replay_jobs", [])])


class DiffResult:
    """Columnar drift report: one row per value, plus the accounting."""

    #: Column order of :meth:`to_records` / :meth:`to_columns`.
    COLUMNS = ("name", "status", "first_divergence", "last_equal",
               "value_a", "value_b", "baseline_a", "baseline_b",
               "method", "probes")

    def __init__(self, drifts: list[ValueDrift], stats: DiffStats):
        self.drifts = drifts
        self.stats = stats

    def drift(self, name: str) -> ValueDrift:
        for entry in self.drifts:
            if entry.name == name:
                return entry
        raise QueryError(f"value {name!r} was not part of this diff; "
                         f"diffed: {', '.join(d.name for d in self.drifts)}")

    def first_divergence(self, name: str) -> int | None:
        return self.drift(name).first_divergence

    @property
    def diverged(self) -> bool:
        return any(entry.status == "diverged" for entry in self.drifts)

    def to_records(self) -> list[dict]:
        """Row-oriented report (pandas ``DataFrame(result.to_records())``)."""
        return [{column: getattr(entry, column) for column in self.COLUMNS}
                for entry in self.drifts]

    def to_columns(self) -> dict[str, list]:
        """Column-oriented report: ``{column: [per-value cells]}``."""
        return {column: [getattr(entry, column) for entry in self.drifts]
                for column in self.COLUMNS}

    def __len__(self) -> int:
        return len(self.drifts)

    def __iter__(self):
        return iter(self.drifts)

    def __repr__(self) -> str:
        return f"DiffResult({self.stats.summary()})"


# ------------------------------------------------------------------------- #
# Value comparison
# ------------------------------------------------------------------------- #
def _values_equal(left, right, tolerance: float) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        if math.isnan(left) or math.isnan(right):
            # A NaN loss *is* the classic drift being diagnosed: NaN on
            # one side is a divergence, NaN on both sides is agreement.
            return math.isnan(left) and math.isnan(right)
        return abs(left - right) <= tolerance
    return left == right


# ------------------------------------------------------------------------- #
# Digest pre-narrowing (free: manifest metadata only)
# ------------------------------------------------------------------------- #
def _digest_signatures(entry: RunEntry, config: FlorConfig
                       ) -> dict[int, tuple]:
    """``{aligned iteration: sorted (block, digest) tuple}`` for one run.

    Only loop-block rows at aligned iterations participate, and only when
    every one of them carries a content address — the payload digest for
    whole rows in the object store, or the raw-payload digest for chunked
    (delta) rows, which is frame-independent by construction.  An
    iteration missing any digest yields no signature and is skipped by
    the comparison rather than treated as equal or different.
    """
    loop_blocks = set(entry.loop_blocks)
    aligned = set(entry.aligned_iterations)
    store = CheckpointStore.for_config(Path(entry.run_dir), config)
    try:
        rows: dict[int, dict[str, str]] = {}
        for record in store.records():
            if record.block_id in loop_blocks \
                    and record.execution_index in aligned:
                if record.is_chunked():
                    digest = f"raw:{record.digest}"
                else:
                    digest = record.payload_digest or ""
                rows.setdefault(record.execution_index, {})[
                    record.block_id] = digest
    finally:
        store.close()
    signatures: dict[int, tuple] = {}
    for iteration, blocks in rows.items():
        if blocks and all(blocks.values()) \
                and set(blocks) == loop_blocks:
            signatures[iteration] = tuple(sorted(blocks.items()))
    return signatures


def _narrow_by_digests(entry_a: RunEntry, entry_b: RunEntry,
                       config: FlorConfig, stats: DiffStats) -> None:
    """Bracket the first *state* divergence by comparing checkpoint digests.

    Fills ``stats.last_state_match`` / ``stats.state_divergence``.  Equal
    digests at iteration ``i`` mean both runs reached identical state
    after ``i`` — deterministic serialization plus deterministic
    compression make the digest a content address — so no value can have
    diverged at or before ``i``.

    Only sound when the two runs checkpoint the *same* loop blocks: with
    different block structures (structurally edited scripts) the digests
    describe different slices of state, so narrowing is skipped and the
    search falls back to pure bisection.
    """
    if not entry_a.loop_blocks or \
            set(entry_a.loop_blocks) != set(entry_b.loop_blocks):
        return
    sig_a = _digest_signatures(entry_a, config)
    sig_b = _digest_signatures(entry_b, config)
    common = sorted(set(sig_a) & set(sig_b))
    for iteration in common:
        stats.digest_comparisons += 1
        if sig_a[iteration] == sig_b[iteration]:
            stats.last_state_match = iteration
        else:
            stats.state_divergence = iteration
            break


# ------------------------------------------------------------------------- #
# Probing (each probe: one single-iteration query against both runs)
# ------------------------------------------------------------------------- #
class _ValueProber:
    """Fetches one value at one iteration from both runs, with caching.

    Every probe funnels through :func:`repro.query.query` so resolution
    is cost-based (logged read, memo read, or a minimal span-replay job
    per run) and replayed values are memoized for later probes and later
    diffs.  The probe cache plus memo write-back keep repeat visits to an
    iteration free; the replay-job ledger accumulates into ``stats``.
    """

    def __init__(self, name: str, run_a: str, run_b: str,
                 source, config: FlorConfig, workers: int | None,
                 memoize: bool | None, catalog: RunCatalog,
                 stats: DiffStats):
        self.name = name
        self.run_a = run_a
        self.run_b = run_b
        self.source = source
        self.config = config
        self.workers = workers
        self.memoize = memoize
        self.catalog = catalog
        self.stats = stats
        self.probes = 0
        self._cache: dict[int, tuple] = {}

    def at(self, iteration: int) -> tuple:
        """``(value_a, value_b)`` at ``iteration`` (None for unresolvable)."""
        if iteration in self._cache:
            return self._cache[iteration]
        with telemetry.get_tracer().span("diff.probe", value=self.name,
                                         iteration=iteration) as probe:
            result = query(values=self.name,
                           runs=[self.run_a, self.run_b],
                           iterations=iteration, source=self.source,
                           config=self.config, workers=self.workers,
                           memoize=self.memoize, catalog=self.catalog)
            probe.set(replay_jobs=len(result.stats.replay_jobs))
        self.probes += 1
        self.stats.probe_queries += 1
        self.stats.replay_jobs.extend(result.stats.replay_jobs)
        pivot = result.pivot(self.name)
        pair = (pivot.get(self.run_a, {}).get(iteration),
                pivot.get(self.run_b, {}).get(iteration))
        self._cache[iteration] = pair
        return pair


def _record_values(run_dir: str, name: str) -> dict[int, object]:
    """``{iteration: value}`` of one value from a run's record log."""
    values: dict[int, object] = {}
    for record in read_log(Path(run_dir) / "record.log"):
        if record.name == name and record.iteration is not None:
            values[record.iteration] = record.value
    return values


# ------------------------------------------------------------------------- #
# Per-value drift search
# ------------------------------------------------------------------------- #
def _logged_scan(name: str, entry_a: RunEntry, entry_b: RunEntry,
                 tolerance: float) -> ValueDrift:
    """Linear scan of the two record logs — free, no replay."""
    values_a = _record_values(entry_a.run_dir, name)
    values_b = _record_values(entry_b.run_dir, name)
    common = sorted(set(values_a) & set(values_b))
    if not common:
        return ValueDrift(name=name, status="no_overlap",
                          method="logged-scan")
    last_equal: int | None = None
    for iteration in common:
        if _values_equal(values_a[iteration], values_b[iteration],
                         tolerance):
            last_equal = iteration
            continue
        return ValueDrift(
            name=name, status="diverged", first_divergence=iteration,
            last_equal=last_equal,
            value_a=values_a[iteration], value_b=values_b[iteration],
            baseline_a=(values_a[last_equal]
                        if last_equal is not None else None),
            baseline_b=(values_b[last_equal]
                        if last_equal is not None else None),
            method="logged-scan")
    return ValueDrift(name=name, status="equal", last_equal=last_equal,
                      baseline_a=values_a[last_equal],
                      baseline_b=values_b[last_equal],
                      method="logged-scan")


def _bisect_drift(name: str, domain: Sequence[int], prober: _ValueProber,
                  tolerance: float, stats: DiffStats) -> ValueDrift:
    """Find the first diverging iteration of ``name`` by probe bisection.

    ``domain`` is the ascending list of candidate iterations.  The state
    bracket from digest pre-narrowing seeds the search: positions at or
    before the last state match are provably equal (skipped without
    probing), and the first state-divergent iteration is probed *first* —
    when the value diverges with the state (the common case for planted
    drift) that single probe collapses the bracket to the digest gap and
    the whole search costs O(1) probes instead of O(log n).
    """
    method = ("digest+bisect"
              if (stats.last_state_match is not None
                  or stats.state_divergence is not None) else "bisect")
    # Positions into ``domain``; the invariant over the whole search is
    # values-equal at ``lo`` (lo == -1 is the virtual "before anything"
    # position) and values-diverged at ``hi``.
    lo = -1
    hi = len(domain) - 1
    if stats.last_state_match is not None:
        # bisect_right by value: last domain position <= last_state_match.
        for position, iteration in enumerate(domain):
            if iteration <= stats.last_state_match:
                lo = position
            else:
                break

    def differ_at(position: int) -> bool | None:
        value_a, value_b = prober.at(domain[position])
        if value_a is None or value_b is None:
            return None
        return not _values_equal(value_a, value_b, tolerance)

    # Seed probe at the state divergence: if the value already differs
    # there, the bracket collapses to the digest gap immediately.
    if stats.state_divergence is not None:
        seed = None
        for position in range(lo + 1, hi + 1):
            if domain[position] >= stats.state_divergence:
                seed = position
                break
        if seed is not None and seed < hi:
            verdict = differ_at(seed)
            if verdict is None:
                return ValueDrift(name=name, status="unresolved",
                                  method=method, probes=prober.probes)
            if verdict:
                hi = seed
            else:
                lo = seed

    # Establish the diverged end of the bracket (unless the seed already
    # did).  An equal final iteration means this value never (observably)
    # diverged, whatever the state did.
    verdict = differ_at(hi)
    if verdict is None:
        return ValueDrift(name=name, status="unresolved", method=method,
                          probes=prober.probes)
    if not verdict:
        iteration = domain[hi]
        value_a, value_b = prober.at(iteration)
        return ValueDrift(name=name, status="equal", last_equal=iteration,
                          baseline_a=value_a, baseline_b=value_b,
                          method=method, probes=prober.probes)

    while hi - lo > 1:
        mid = (lo + hi) // 2
        verdict = differ_at(mid)
        if verdict is None:
            return ValueDrift(name=name, status="unresolved", method=method,
                              probes=prober.probes)
        if verdict:
            hi = mid
        else:
            lo = mid

    first = domain[hi]
    value_a, value_b = prober.at(first)
    baseline_a = baseline_b = None
    last_equal = domain[lo] if lo >= 0 else None
    if lo >= 0:
        baseline_a, baseline_b = prober.at(domain[lo])
        if baseline_a is None or baseline_b is None:
            baseline_a = baseline_b = None
    return ValueDrift(name=name, status="diverged", first_divergence=first,
                      last_equal=last_equal, value_a=value_a,
                      value_b=value_b, baseline_a=baseline_a,
                      baseline_b=baseline_b, method=method,
                      probes=prober.probes)


# ------------------------------------------------------------------------- #
# Entry point
# ------------------------------------------------------------------------- #
def diff(run_a: str, run_b: str, values: str | Sequence[str],
         source: str | Path | None = None,
         tolerance: float = 0.0,
         use_checkpoint_digests: bool = True,
         config: FlorConfig | None = None,
         workers: int | None = None,
         memoize: bool | None = None,
         catalog: RunCatalog | None = None) -> DiffResult:
    """Locate the first diverging iteration of each value between two runs.

    Parameters
    ----------
    run_a, run_b:
        Run ids (or unique prefixes) of the two runs to compare.
    values:
        Value name or names to diff.
    source:
        Probe source (script text or path) computing values neither run
        logged at record time; required for such values, ignored for
        logged ones.
    tolerance:
        Numeric values within ``tolerance`` of each other count as equal
        (exact comparison by default).
    use_checkpoint_digests:
        Bracket the state divergence by comparing manifest checkpoint
        digests first (free).  Disable to exercise or measure pure value
        bisection.
    workers, memoize, catalog:
        Forwarded to the underlying :func:`repro.query.query` probes.
    """
    started = monotonic()
    config = config or get_config()
    telemetry.enable_from_config(config)
    names = (values,) if isinstance(values, str) else tuple(values)
    if not names:
        raise QueryError("diff needs at least one value name")

    with telemetry.get_tracer().span("diff",
                                     values=",".join(names)) as diff_span:
        catalog = catalog or RunCatalog.open(config)
        entry_a = _single_entry(catalog, run_a)
        entry_b = _single_entry(catalog, run_b)
        if entry_a.run_id == entry_b.run_id:
            raise QueryError(
                f"diff needs two distinct runs, got {entry_a.run_id!r} "
                "twice")
        diff_span.set(run_a=entry_a.run_id, run_b=entry_b.run_id)

        stats = DiffStats(run_a=entry_a.run_id, run_b=entry_b.run_id)
        domain = sorted(set(range(entry_a.main_loop_total))
                        & set(range(entry_b.main_loop_total)))
        stats.common_iterations = len(domain)

        if domain and use_checkpoint_digests:
            _narrow_by_digests(entry_a, entry_b, config, stats)

        drifts: list[ValueDrift] = []
        for name in names:
            if not domain:
                drifts.append(ValueDrift(name=name, status="no_overlap",
                                         method="logged-scan"))
                continue
            logged_both = (name in entry_a.logged_values
                           and name in entry_b.logged_values)
            if logged_both:
                drifts.append(_logged_scan(name, entry_a, entry_b,
                                           tolerance))
                continue
            if source is None:
                raise QueryError(
                    f"value {name!r} was not logged by both runs "
                    f"({entry_a.run_id}: {name in entry_a.logged_values}, "
                    f"{entry_b.run_id}: {name in entry_b.logged_values}); "
                    "pass `source=` with a probe script that computes it")
            prober = _ValueProber(name, entry_a.run_id, entry_b.run_id,
                                  source, config, workers, memoize,
                                  catalog, stats)
            drifts.append(_bisect_drift(name, domain, prober, tolerance,
                                        stats))
        diff_span.set(probes=stats.probe_queries)

    stats.total_seconds = monotonic() - started
    return DiffResult(drifts=drifts, stats=stats)


def _single_entry(catalog: RunCatalog, run_id: str) -> RunEntry:
    matches = catalog.select(run_id)
    if not matches:
        raise QueryError(
            f"run {run_id!r} not in catalog; cataloged runs: "
            f"{', '.join(sorted(entry.run_id for entry in catalog)) or '-'}")
    if len(matches) > 1:
        raise QueryError(
            f"run id prefix {run_id!r} is ambiguous: "
            f"{', '.join(entry.run_id for entry in matches)}")
    return matches[0]
