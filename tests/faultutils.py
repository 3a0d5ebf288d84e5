"""Reusable fault-injection helpers for crash-consistency tests.

The storage layer's crash-safety story is an *ordering* claim: payloads
are written before the manifest rows that reference them, and deleted
only after no manifest row references them.  These helpers simulate a
process dying at the worst possible instant — mid-GC sweep, mid-batch
manifest commit, between a payload write and its index — by arming a
method to raise :class:`InjectedCrash` on its N-th call, then let the
test "reboot" (reopen the store) and assert the two invariants that must
survive any crash:

* **no dangling manifest rows** — every indexed checkpoint's payload is
  readable and matches its recorded digest
  (:func:`assert_manifest_closed`);
* **no orphaned payloads** — after one GC pass, every blob in the home's
  object store is referenced by some manifest
  (:func:`assert_no_orphans`).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repro.storage.lifecycle import collect_garbage, referenced_digest_counts
from repro.utils.hashing import digest_bytes

__all__ = ["InjectedCrash", "FaultInjector", "crash_calls",
           "assert_manifest_closed", "assert_no_orphans",
           "assert_crash_consistent", "assert_refcounts_exact",
           "start_recorder_process", "start_client_process",
           "wait_for_file", "kill_process"]


class InjectedCrash(Exception):
    """The simulated process death (raised mid-operation by an armed hook)."""


class FaultInjector:
    """Arms methods on live objects to crash on a chosen call.

    ``inject(obj, "method", on_call=2)`` replaces ``obj.method`` with a
    wrapper that delegates normally until the 2nd call, which raises
    :class:`InjectedCrash` — *before* delegating by default (the crash
    lands at the operation boundary), or after when ``after=True`` (the
    operation takes effect, then the process "dies" before whatever was
    supposed to follow).  ``restore()`` puts every patched method back;
    use :func:`crash_calls` for the context-managed form.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}

    def inject(self, obj, method_name: str, *, on_call: int = 1,
               after: bool = False) -> None:
        original = getattr(obj, method_name)
        label = f"{type(obj).__name__}.{method_name}"
        self.calls.setdefault(label, 0)

        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            crash_now = self.calls[label] == on_call
            if crash_now and not after:
                raise InjectedCrash(f"{label} call #{on_call} (before)")
            result = original(*args, **kwargs)
            if crash_now:
                raise InjectedCrash(f"{label} call #{on_call} (after)")
            return result

        self._patched.append((obj, method_name, original))
        setattr(obj, method_name, wrapper)

    def restore(self) -> None:
        while self._patched:
            obj, method_name, original = self._patched.pop()
            setattr(obj, method_name, original)


@contextmanager
def crash_calls(obj, method_name: str, *, on_call: int = 1,
                after: bool = False):
    """Context-managed single-method injection (restored on exit)."""
    injector = FaultInjector()
    injector.inject(obj, method_name, on_call=on_call, after=after)
    try:
        yield injector
    finally:
        injector.restore()


# --------------------------------------------------------------------------- #
# Post-crash invariants
# --------------------------------------------------------------------------- #
def assert_manifest_closed(store) -> int:
    """Every manifest row's payload is readable and digest-verified.

    This is the "no dangling manifest entries" half of the recovery
    contract: whatever a crash interrupted, a reopened store must be able
    to serve every checkpoint its manifest still claims.  Returns the
    number of rows verified.
    """
    records = store.records()
    for record in records:
        if record.is_chunked():
            # Delta rows have no single payload file; reassembly verifies
            # per-chunk digests plus the full-payload digest itself.
            objects = store.backend.object_store()
            assert objects is not None, (
                f"chunked row {record.block_id}[{record.execution_index}] "
                f"but the backend has no object store")
            payload, _ = store._reassemble(record)
            assert digest_bytes(payload) == record.digest, (
                f"reassembled payload does not match the manifest digest "
                f"for {record.block_id}[{record.execution_index}]")
        else:
            payload = store.backend.read_payload(str(record.path))
            assert digest_bytes(payload) == record.digest, (
                f"payload at {record.path} does not match the manifest "
                f"digest for {record.block_id}[{record.execution_index}]")
    return len(records)


def assert_no_orphans(home: str | Path) -> None:
    """After one GC pass, the object store holds exactly the referenced set.

    This is the "no orphaned payloads" half: a crash may strand blobs,
    but a single sweep must reclaim every blob no manifest references —
    and must keep every blob some manifest still does.
    """
    home = Path(home)
    collect_garbage(home, grace_seconds=0.0)
    referenced = set(referenced_digest_counts(home))
    from repro.storage.lifecycle import _home_object_stores
    held: set[str] = set()
    for objects in _home_object_stores(home):
        held.update(objects.digests())
    assert held == referenced, (
        f"object store out of sync after GC: "
        f"orphans={sorted(held - referenced)} "
        f"missing={sorted(referenced - held)}")


def assert_crash_consistent(store, home: str | Path) -> None:
    """Both invariants at once: manifest closed, then object store exact."""
    assert_manifest_closed(store)
    assert_no_orphans(home)


def assert_refcounts_exact(home: str | Path, stores) -> None:
    """Derived refcounts match an independent count over every manifest.

    ``referenced_digest_counts`` is what GC marks from; this recounts the
    same quantity the slow way — one pass over every store's manifest
    rows — and demands digest-for-digest agreement, so a lost manifest
    row or a double-counted shard shows up as a refcount mismatch.
    """
    recounted: "Counter[str]" = Counter()
    for store in stores:
        for record in store.records():
            if record.payload_digest:
                recounted[record.payload_digest] += 1
            recounted.update(record.recipe_digests())
    derived = referenced_digest_counts(Path(home))
    assert dict(derived) == dict(recounted), (
        f"derived refcounts disagree with a manifest recount: "
        f"derived-only={dict(derived - recounted)} "
        f"recount-only={dict(recounted - derived)}")


# --------------------------------------------------------------------------- #
# Real-process fault injection (kill a recorder worker mid-record)
# --------------------------------------------------------------------------- #
def start_recorder_process(job_id: str, rank: int, world_size: int, *,
                           config, workload_name: str = "cifr",
                           epochs: int = 2, seed: int = 0) -> mp.Process:
    """Fork one distributed recorder worker as a real OS process.

    The child runs :func:`repro.workloads.distributed.record_worker` under
    ``<job_id>@<rank>`` against the config's shared home — the same entry
    the production pool driver uses — so killing it simulates a worker
    dying mid-record, not a cooperative exception.
    """
    from repro.workloads.distributed import _worker_entry

    ctx = mp.get_context("fork")
    process = ctx.Process(
        target=_worker_entry,
        args=((job_id, rank, world_size, workload_name, epochs, seed,
               config),),
        daemon=True)
    process.start()
    return process


def _client_query_entry(args: tuple) -> None:
    """Child entry of :func:`start_client_process` (module-level: picklable).

    Touches ``streaming_path`` on the first streamed batch and
    ``done_path`` (with the stats summary) on completion, so the parent
    can tell "mid-stream" from "finished" without a result channel.
    """
    address, client_id, params, streaming_path, done_path = args
    from repro.service.client import connect

    client = connect(address, client_id=client_id, retries=0)

    def on_batch(_rows):
        Path(streaming_path).write_text("streaming", encoding="utf-8")

    result = client.query(on_batch=on_batch, **params)
    if done_path:
        Path(done_path).write_text(result.stats.summary(),
                                   encoding="utf-8")


def start_client_process(address: str, client_id: str, params: dict, *,
                         streaming_path: str | Path,
                         done_path: str | Path | None = None
                         ) -> mp.Process:
    """Fork one real service client as an OS process, for kill tests.

    The child issues ``client.query(**params)`` against ``address`` and
    writes ``streaming_path`` the moment the first partial batch arrives
    — the "mid-stream" sentinel a SIGKILL should land after, so the kill
    interrupts an in-flight streamed response rather than a connection
    that never got admitted.
    """
    ctx = mp.get_context("fork")
    process = ctx.Process(
        target=_client_query_entry,
        args=((address, client_id, params, str(streaming_path),
               str(done_path) if done_path else ""),),
        daemon=True)
    process.start()
    return process


def wait_for_file(path: str | Path, *, min_bytes: int = 1,
                  timeout: float = 60.0) -> bool:
    """Poll until ``path`` exists with at least ``min_bytes`` bytes.

    The kill tests use this as the "worker is mid-record" sentinel: once
    the worker's record log has content, it is past session setup and
    actively training, so a SIGKILL lands in the middle of checkpoint
    traffic rather than before any state exists.
    """
    path = Path(path)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if path.stat().st_size >= min_bytes:
                return True
        except FileNotFoundError:
            pass
        time.sleep(0.01)
    return False


def kill_process(process: mp.Process, *, join_timeout: float = 30.0) -> None:
    """SIGKILL a worker process and reap it (no atexit, no cleanup runs)."""
    process.kill()
    process.join(timeout=join_timeout)
    assert not process.is_alive(), "killed worker did not exit"
