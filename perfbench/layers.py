"""The traced layer pass: one span around every public call into a layer.

Layers are the repo's modules.  Each metric times the named public call
from outside, on the inputs the workload's own planes produced: the
checkpoints of its first recorded run, its fleet home, its probe texts.
Where an end-to-end wall can be rebuilt from such calls (record on the
main thread, a memoized query, a warm service request) the pass rebuilds
it, and ``coverage.*`` is the share of the measured wall the rebuilt
stages account for.  ``sim/`` has no runtime role and is left out.
"""

from __future__ import annotations

import time

import repro
from repro.analysis import instrument_source
from repro.query.api import assemble_result, prepare_query
from repro.query.executor import execute_span_jobs
from repro.query.memo import MemoCache, source_digest
from repro.record.materializer import create_materializer
from repro.storage import (CheckpointStore, RetentionPolicy, compress,
                           decompress, deserialize_checkpoint, restore_value,
                           serialize_checkpoint, snapshot_value)
from repro.storage.chunking import chunk_spans
from repro.storage.serializer import payload_segments

from planes import Run, median, percentile, rows_match

#: Checkpoints of the first run the storage passes walk, at most.
MAX_CHECKPOINTS = 16

MB = 1e6


def timed(run: Run, name: str, call, repeats: int = 1, **counts):
    """Call inside a span named ``name``; returns the last result.

    Every call's wall is kept under ``run.layer_walls[name]``, which is
    what the metrics below are computed from.
    """
    for _ in range(repeats):
        with run.rec.span(name, **counts):
            start = time.perf_counter()
            result = call()
            run.layer_walls[name].append(time.perf_counter() - start)
    return result


def first_store(run: Run) -> CheckpointStore:
    return CheckpointStore.for_config(run.config.run_dir(run.run_ids[0]),
                                      run.config)


def analysis_layer(run: Run) -> None:
    scripts = run.scripts
    with run.rec.span("layer.analysis"):
        timed(run, "analysis.lint",
              lambda: repro.lint_source(scripts.record), 5)
        timed(run, "analysis.instrument",
              lambda: instrument_source(scripts.record), 5)
        timed(run, "analysis.probe_classify",
              lambda: repro.analyze_probe(scripts.record,
                                          scripts.outer("q0")), 5)


def storage_and_record_layers(run: Run) -> dict:
    """Read the first run's checkpoints back, then write them again twice:
    once call by call (the storage write path) and once through the
    configured materializer (what record's main thread sees).

    Returns the counts the timings alone do not give.
    """
    config = run.config
    recorded = first_store(run)
    keys = [(block, index) for block in recorded.blocks()
            for index in recorded.executions(block)][:MAX_CHECKPOINTS]
    with run.rec.span("layer.storage.read"):
        checkpoints = [timed(run, "storage.get",
                             lambda: recorded.get(block, index))
                       for block, index in keys]
        memo_key = MemoCache.keys(recorded)[0]
        timed(run, "storage.metadata_get",
              lambda: recorded.get_metadata(memo_key), 20)
    recorded.close()

    # Write path, one public call at a time, into an empty home.
    direct_config = repro.FlorConfig(home=run.work / "layer-direct",
                                     **run.workload.config)
    direct = CheckpointStore.for_config(direct_config.run_dir("direct"),
                                        direct_config)
    raw_bytes = offered = 0
    live = []
    with run.rec.span("layer.storage.write"):
        for (block, index), snapshots in zip(keys, checkpoints):
            serialized = timed(run, "storage.serialize",
                               lambda: serialize_checkpoint(snapshots))
            size = dict(nbytes=serialized.nbytes)
            raw_bytes += serialized.nbytes
            encoded = timed(run, "storage.encode", lambda: compress(
                serialized.data, level=config.codec_level,
                codec=direct.resolve_codec(serialized.nbytes)), **size)
            offered += len(timed(run, "storage.chunk", lambda: chunk_spans(
                serialized.data, mode=config.chunking,
                chunk_nbytes=config.chunk_nbytes,
                segments=payload_segments(serialized.data)), **size))
            timed(run, "storage.put",
                  lambda: direct.put(block, index, snapshots), **size)
            decoded = timed(run, "storage.decode",
                            lambda: decompress(encoded.data), **size)
            live.append(timed(run, "storage.deserialize", lambda: [
                (snapshot.name, restore_value(snapshot))
                for snapshot in deserialize_checkpoint(decoded)], **size))
        timed(run, "storage.commit", direct.flush)
    objects = direct.backend.object_store()
    stored = objects.stats().objects if objects is not None else len(keys)
    run.check("storage round trip get(put(x)) is bit-exact", all(
        serialize_checkpoint(direct.get(block, index)).data
        == serialize_checkpoint(snapshots).data
        for (block, index), snapshots in zip(keys, checkpoints)))
    direct.close()

    # Background work on that same home: prune the older half, collect.
    with run.rec.span("layer.storage.background"):
        policy = RetentionPolicy(keep_last_n=max(1, len(keys) // 2))
        timed(run, "storage.prune", lambda: repro.prune(
            "direct", policy, direct_config, collect=False))
        swept = timed(run, "storage.gc", lambda: repro.gc(direct_config))

    # Record's main thread: capture each epoch's live values, hand them to
    # the configured materializer, then drain it.  Between checkpoints the
    # script computes for an epoch; without that gap the spool would see
    # one burst and drain would measure a backlog record never builds.
    spooled_config = repro.FlorConfig(home=run.work / "layer-spooled",
                                      **run.workload.config)
    spooled = CheckpointStore.for_config(spooled_config.run_dir("spooled"),
                                         spooled_config)
    epoch_s = median(run.walls["vanilla"]) / run.scripts.epochs
    with run.rec.span("layer.record"):
        materializer = create_materializer(
            config.background_materialization, spooled, config=config)
        for (block, index), values in zip(keys, live):
            with run.rec.span("record.epoch_gap"):
                time.sleep(epoch_s)
            snapshots = timed(run, "record.capture", lambda: [
                snapshot_value(name, value) for name, value in values])
            timed(run, "record.submit",
                  lambda: materializer.submit(block, index, snapshots))
        timed(run, "record.drain", materializer.close)
        timed(run, "record.fixed", lambda: repro.record_source(
            run.scripts.one_epoch, name="fixed", config=spooled_config))
    run.check("materializer reported no errors",
              not materializer.stats.errors)
    spooled.close()
    return {"checkpoints": max(len(keys), 1), "raw_bytes": raw_bytes,
            "new_chunk_frac": stored / max(offered, 1),
            "gc_reclaimed_frac": swept.swept_nbytes / max(
                swept.swept_nbytes + swept.kept_nbytes, 1)}


def replay_layer(run: Run) -> None:
    scripts, config, first = run.scripts, run.config, run.run_ids[0]
    code = compile(scripts.outer("hindsight"), "script.py", "exec")
    with run.rec.span("layer.replay"):
        timed(run, "replay.worker_startup", lambda: repro.replay_script(
            first, num_workers=run.nproc, config=config))
        timed(run, "replay.full_one_worker", lambda: repro.replay_script(
            first, new_source=scripts.inner, num_workers=1, config=config))
        timed(run, "torchlike.probed_vanilla",
              lambda: exec(code, {"__name__": "__main__"}))  # noqa: S102


def staged_query(run: Run, name: str, prefix: str):
    """One library query through its public stages, each in a span."""
    config = run.config
    with run.rec.span(f"{prefix}.staged", probe=name):
        catalog = timed(run, f"{prefix}.catalog_open",
                        lambda: repro.RunCatalog.open(config))
        prepared = timed(run, f"{prefix}.plan", lambda: prepare_query(
            name, iterations=run.window(), source=run.scripts.outer(name),
            config=config, catalog=catalog))
        jobs = prepared.balanced_jobs()
        outcome = timed(run, f"{prefix}.execute", lambda: execute_span_jobs(
            jobs, prepared.sources_by_run, prepared.probed_by_run, config,
            processes=prepared.processes), jobs=len(jobs))
        result = timed(run, f"{prefix}.assemble",
                       lambda: assemble_result(prepared, outcome))
    run.check(f"staged query {name!r} matches ground truth", rows_match(
        run, result, name, None, run.window()) is None)


def query_layer(run: Run) -> None:
    """A cold query through its stages, for ``query.execute_s``."""
    with run.rec.span("layer.query"):
        staged_query(run, "layer_cold", "query.cold")
        store = first_store(run)
        digest = source_digest(run.scripts.outer("q0"))
        timed(run, "query.memo_load",
              lambda: MemoCache(store, digest).load(), 5)
        store.close()


def warm_path_layer(run: Run, service) -> None:
    """Runs while the daemon is still up and idle, after the closed loop.

    One memoized query four ways, in turn so that a slow phase of the
    machine hits all four alike: through the socket with nothing else in
    flight, in-library as one call, in-library stage by stage, and the
    bare round trip.  That separates the protocol's cost from the wait
    concurrent tenants add to a warm request, and gives the coverage of
    both warm walls from samples taken side by side.
    """
    client = repro.connect(service.address, client_id="layers", retries=0)
    probe = dict(source=run.scripts.outer("q0"), iterations=run.window())
    with run.rec.span("layer.warm_path"):
        for _ in range(10):
            timed(run, "service.ping", client.ping, 2)
            timed(run, "service.warm_isolated",
                  lambda: client.query(["q0"], **probe))
            timed(run, "service.library_warm",
                  lambda: repro.query("q0", config=run.config, **probe))
            staged_query(run, "q0", "query")


def telemetry_layer(run: Run) -> dict:
    """Last: a ``telemetry=True`` session switches the process-wide
    flight recorder on, and nothing measured earlier may see that."""
    tracer = repro.telemetry.get_tracer()
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with tracer.span("perfbench.noop"):
            pass
    noop_ns = (time.perf_counter() - start) / calls * 1e9

    with run.rec.span("layer.telemetry"):
        for flag in (True, False, False, True):
            config = repro.FlorConfig(
                home=run.work / "layer-telemetry", telemetry=flag,
                **run.workload.config)
            timed(run, f"telemetry.record_{'on' if flag else 'off'}",
                  lambda: repro.record_source(
                      run.scripts.record, name="telemetry", config=config))
            repro.telemetry.configure(enabled=False)
            repro.telemetry.get_metrics().configure(enabled=False)
    tracer.reset()
    return {"noop_ns": noop_ns}


def layer_pass(run: Run) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``{name: (value, unit)}``."""
    analysis_layer(run)
    storage = storage_and_record_layers(run)
    replay_layer(run)
    query_layer(run)
    telemetry = telemetry_layer(run)

    walls, facts, layer = run.walls, run.facts, run.layer_walls

    def mid(name):
        return median(layer[name])

    def ms(name):
        return mid(name) * 1e3, "ms"

    def rate(name):
        return storage["raw_bytes"] / MB / sum(layer[name]), "MB/s"

    store = first_store(run)
    epochs = (store.get_metadata("iteration_stats") or {}).get(
        "per_iteration_compute_seconds") or {"0": 0.0}
    store.close()
    vanilla_s = median(walls["vanilla"])
    partial_s = median(walls["replay_partial"])
    warm_s = median(walls["request.warm"])
    cold_stats, overlap_stats = facts["cold_stats"], facts["overlap_stats"]
    # The daemon keeps its catalog open, so a request skips that stage.
    request_stages_s = sum(mid(f"query.{stage}") for stage in (
        "plan", "execute", "assemble"))
    warm_stages_s = mid("query.catalog_open") + request_stages_s
    # What record adds on the main thread, scaled from the checkpoints
    # walked here to the checkpoints a record trial takes.
    taken = median(record.checkpoint_count for record in run.records)
    record_added_s = ((sum(layer["record.capture"])
                       + sum(layer["record.submit"]))
                      / storage["checkpoints"] * taken
                      + mid("record.drain"))
    traced = [kind for kind in run.spans_on if run.spans_off.get(kind)]
    return {
        "analysis.lint_ms": ms("analysis.lint"),
        "analysis.instrument_ms": ms("analysis.instrument"),
        "analysis.probe_classify_ms": ms("analysis.probe_classify"),
        "record.capture_ms_per_ckpt": (
            sum(layer["record.capture"]) / storage["checkpoints"] * 1e3,
            "ms"),
        "record.submit_ms_p50": ms("record.submit"),
        "record.submit_ms_p95": (
            percentile(layer["record.submit"], 0.95) * 1e3, "ms"),
        "record.drain_ms": ms("record.drain"),
        "record.main_thread_s": (median(
            record.materialization_main_thread_seconds
            for record in run.records), "s"),
        "record.checkpoints": (taken, "count"),
        "record.fixed_s": (mid("record.fixed"), "s"),
        "storage.serialize_mb_s": rate("storage.serialize"),
        "storage.encode_mb_s": rate("storage.encode"),
        "storage.chunk_mb_s": rate("storage.chunk"),
        "storage.put_ms_p50": ms("storage.put"),
        "storage.put_ms_p95": (percentile(layer["storage.put"], 0.95) * 1e3,
                               "ms"),
        "storage.commit_ms": ms("storage.commit"),
        "storage.new_chunk_frac": (storage["new_chunk_frac"], "frac"),
        "storage.get_ms_p50": ms("storage.get"),
        "storage.get_ms_p95": (percentile(layer["storage.get"], 0.95) * 1e3,
                               "ms"),
        "storage.decode_mb_s": rate("storage.decode"),
        "storage.deserialize_mb_s": rate("storage.deserialize"),
        "storage.metadata_get_ms": ms("storage.metadata_get"),
        "storage.prune_s": (mid("storage.prune"), "s"),
        "storage.gc_s": (mid("storage.gc"), "s"),
        "storage.gc_reclaimed_frac": (storage["gc_reclaimed_frac"], "frac"),
        "replay.worker_startup_s": (mid("replay.worker_startup"), "s"),
        "replay.partial_ms_per_iter": (
            partial_s / run.scripts.epochs * 1e3, "ms"),
        "replay.max_worker_s": (median(facts["max_worker_s"]), "s"),
        "replay.parallel_efficiency": (
            mid("replay.full_one_worker")
            / (run.nproc * median(walls["replay_full"])), "frac"),
        "replay.partial_speedup_vs_vanilla": (
            mid("torchlike.probed_vanilla") / partial_s, "x"),
        "query.catalog_open_ms": ms("query.catalog_open"),
        "query.plan_ms": ms("query.plan"),
        "query.plan_ms_per_run": (
            mid("query.plan") / len(run.run_ids) * 1e3, "ms"),
        "query.memo_load_ms": ms("query.memo_load"),
        "query.execute_s": (mid("query.cold.execute"), "s"),
        "query.assemble_ms": ms("query.assemble"),
        "query.replay_jobs": (cold_stats.replay_job_count, "count"),
        "query.replayed_iterations": (cold_stats.replayed_iterations,
                                      "count"),
        "query.replay_waste": (cold_stats.replayed_iterations
                               / max(cold_stats.resolved_replay, 1), "x"),
        "query.warm_wall_s": (median(walls["query_warm"]), "s"),
        "query.overlap_wall_s": (median(walls["query_overlap"]), "s"),
        "query.memo_hit_frac": (
            overlap_stats.resolved_memo
            / max(overlap_stats.requested_cells, 1), "frac"),
        "service.ping_rtt_ms": ms("service.ping"),
        "service.protocol_tax_ms": (
            (mid("service.warm_isolated") - mid("service.library_warm"))
            * 1e3, "ms"),
        "service.load_wait_ms": (
            (warm_s - mid("service.warm_isolated")) * 1e3, "ms"),
        "service.request_p50_ms": (median(
            wall for kind, samples in walls.items()
            if kind.startswith("request.") for wall in samples) * 1e3, "ms"),
        "service.warm_ms_p50": (warm_s * 1e3, "ms"),
        "service.cold_ms_p50": (median(walls["request.cold"]) * 1e3, "ms"),
        "service.shared_ms_p50": (median(walls["request.shared"]) * 1e3,
                                  "ms"),
        "service.dedup_jobs_ratio": (
            facts["ledger_jobs"] / max(facts["jobs_needed"], 1), "x"),
        "service.busy_rejects": (run.busy_rejects, "count"),
        "service.start_s": (facts["service_start_s"], "s"),
        "service.drain_s": (facts["service_drain_s"], "s"),
        "telemetry.record_overhead_ratio": (
            mid("telemetry.record_on") / mid("telemetry.record_off"), "x"),
        "telemetry.noop_span_ns": (telemetry["noop_ns"], "ns"),
        "torchlike.vanilla_wall_s": (vanilla_s, "s"),
        "torchlike.epoch_ms_p50": (median(epochs.values()) * 1e3, "ms"),
        "trace_overhead_ratio": (
            sum(median(run.spans_on[kind]) for kind in traced)
            / sum(median(run.spans_off[kind]) for kind in traced), "x"),
        "coverage.record_wall": (
            (mid("analysis.lint") + mid("analysis.instrument") + vanilla_s
             + record_added_s) / median(walls["record"]), "frac"),
        "coverage.query_warm_wall": (
            warm_stages_s / mid("service.library_warm"), "frac"),
        "coverage.request_warm": (
            (mid("service.ping") + request_stages_s)
            / mid("service.warm_isolated"), "frac"),
    }
