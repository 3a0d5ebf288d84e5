"""Fair cross-tenant scheduling of replay jobs on one worker pool.

The service owns ONE bounded process pool (``FlorConfig.service_workers``)
for every tenant's replay jobs; this module decides whose job runs next.
FIFO would let one tenant's hundred-span query starve everyone else's
one-span probes, so admission is per-client weighted round-robin: each
client with pending work is visited in turn and may dispatch
``weight`` jobs per visit (weight 1 by default — strict round-robin).
A small query's spans therefore wait behind at most one in-flight span
per busy tenant, never behind a whole large query.

Execution is delegated to a ``runner`` callable so unit tests can drive
the scheduler with a stub (no subprocesses); the default runner lazily
builds a persistent ``multiprocessing`` pool and executes
:func:`repro.replay.parallel._pool_entry` — the same entry the in-library
query and parallel replay paths use — keeping replay semantics identical
in and out of the service.  Dispatcher threads (one per pool slot) pull
tickets and block on their result, so at most ``workers`` replay jobs run
concurrently no matter how many are queued.

Every dispatched job lands in a bounded in-memory ledger; the concurrency
battery asserts dedup ("two identical queries, one set of jobs") and
fairness against it, and operators can read it off a live daemon.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field

from ..config import FlorConfig
from ..exceptions import ServiceError
from ..replay.parallel import (ReplayJobSpec, WorkerResult, _job_args,
                               _pool_entry)
from ..utils.timing import monotonic

__all__ = ["JobTicket", "FairReplayPool", "LedgerEntry"]


@dataclass
class JobTicket:
    """One replay job queued on the fair pool."""

    client: str
    spec: ReplayJobSpec
    sequence: int
    queued_wall: float = field(default_factory=time.time)
    queued_mono: float = field(default_factory=monotonic)
    #: Seconds the ticket sat queued before a dispatcher picked it up.
    queue_wait: float = 0.0
    result: WorkerResult | None = None
    error: BaseException | None = None
    done: threading.Event = field(default_factory=threading.Event)


@dataclass(frozen=True)
class LedgerEntry:
    """One dispatched replay job (the fairness/dedup accounting trail)."""

    client: str
    run_id: str
    iterations: tuple[int, ...]
    queue_wait: float
    wall_seconds: float


class FairReplayPool:
    """Weighted round-robin replay-job scheduler over one process pool."""

    LEDGER_LIMIT = 4096

    def __init__(self, config: FlorConfig, workers: int | None = None,
                 runner=None, weights: dict[str, int] | None = None):
        self.config = config
        self.workers = max(1, workers if workers is not None
                           else config.service_workers)
        self._runner = runner or self._pool_runner
        self._weights = dict(weights or {})
        #: Per-client consecutive-dispatch credit within one rotation visit.
        self._credit: dict[str, int] = {}
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queues: dict[str, list[JobTicket]] = {}
        #: Round-robin rotation of client ids with pending work.
        self._rotation: list[str] = []
        self._rotation_index = 0
        self._sequence = itertools.count()
        self._closed = False
        self._ledger: list[LedgerEntry] = []
        self._mp_pool = None
        self._mp_lock = threading.Lock()
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-service-dispatch-{index}",
                             daemon=True)
            for index in range(self.workers)]
        for thread in self._dispatchers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, client: str, spec: ReplayJobSpec) -> JobTicket:
        """Queue one replay job for ``client``; returns its ticket."""
        with self._work:
            if self._closed:
                raise ServiceError("replay pool is closed",
                                   code="SHUTTING_DOWN")
            ticket = JobTicket(client=client, spec=spec,
                               sequence=next(self._sequence))
            queue = self._queues.setdefault(client, [])
            if client not in self._rotation:
                self._rotation.append(client)
            queue.append(ticket)
            self._work.notify()
            return ticket

    @staticmethod
    def wait(ticket: JobTicket, timeout: float | None = None
             ) -> WorkerResult:
        """Block until ``ticket`` finishes; re-raises a runner failure."""
        if not ticket.done.wait(timeout):
            raise ServiceError(
                f"replay job for {ticket.client!r} did not finish within "
                f"{timeout}s", code="INTERNAL")
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def ledger(self) -> list[LedgerEntry]:
        """Snapshot of dispatched jobs, oldest first."""
        with self._lock:
            return list(self._ledger)

    def pending(self) -> int:
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _next_ticket(self) -> JobTicket | None:
        """Pop the next ticket under WRR; None when the pool is closed.

        Must be called with ``self._work`` held-and-waited: blocks until
        work arrives.  The rotation visits each client with pending work
        in turn; a client gets ``weight`` consecutive dispatches per
        visit (tracked implicitly by leaving it in place until its credit
        is spent), then the rotation moves on.
        """
        while True:
            if self._closed and not any(self._queues.values()):
                return None
            for _ in range(max(1, len(self._rotation))):
                if not self._rotation:
                    break
                self._rotation_index %= len(self._rotation)
                client = self._rotation[self._rotation_index]
                queue = self._queues.get(client)
                if queue:
                    ticket = queue.pop(0)
                    credit = self._credit.get(client, 0) + 1
                    if credit >= self._weights.get(client, 1) or not queue:
                        # Credit spent (or queue drained): move on.
                        self._credit[client] = 0
                        if not queue:
                            self._rotation.remove(client)
                        else:
                            self._rotation_index += 1
                    else:
                        self._credit[client] = credit
                    return ticket
                self._rotation.remove(client)
            self._work.wait()

    def _dispatch_loop(self) -> None:
        while True:
            with self._work:
                ticket = self._next_ticket()
            if ticket is None:
                return
            ticket.queue_wait = monotonic() - ticket.queued_mono
            started = monotonic()
            try:
                ticket.result = self._runner(ticket.spec)
            except BaseException as error:  # noqa: BLE001 - shipped to waiter
                ticket.error = error
            finally:
                with self._lock:
                    self._ledger.append(LedgerEntry(
                        client=ticket.client,
                        run_id=ticket.spec.run_id,
                        iterations=tuple(ticket.spec.sample_iterations),
                        queue_wait=ticket.queue_wait,
                        wall_seconds=monotonic() - started))
                    if len(self._ledger) > self.LEDGER_LIMIT:
                        del self._ledger[:-self.LEDGER_LIMIT]
                ticket.done.set()

    # ------------------------------------------------------------------ #
    # Default runner: the persistent multiprocessing pool
    # ------------------------------------------------------------------ #
    def _pool_runner(self, spec: ReplayJobSpec) -> WorkerResult:
        pool = self._ensure_mp_pool()
        return pool.apply_async(_pool_entry,
                                (_job_args(spec, self.config),)).get()

    def _ensure_mp_pool(self):
        with self._mp_lock:
            if self._closed:
                raise ServiceError("replay pool is closed",
                                   code="SHUTTING_DOWN")
            if self._mp_pool is None:
                # The daemon never holds an active Flor session, so fork
                # is safe where available; workers clear inherited state
                # at entry (_pool_entry) either way.
                method = "fork" if hasattr(os, "fork") else "spawn"
                ctx = mp.get_context(method)
                self._mp_pool = ctx.Pool(processes=self.workers)
            return self._mp_pool

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatchers; with ``drain`` finish queued work first."""
        with self._work:
            self._closed = True
            if not drain:
                for queue in self._queues.values():
                    for ticket in queue:
                        ticket.error = ServiceError(
                            "service shut down before this job ran",
                            code="SHUTTING_DOWN")
                        ticket.done.set()
                    queue.clear()
                self._rotation.clear()
            self._work.notify_all()
        deadline = monotonic() + timeout
        for thread in self._dispatchers:
            thread.join(max(0.0, deadline - monotonic()))
        with self._mp_lock:
            if self._mp_pool is not None:
                self._mp_pool.terminate()
                self._mp_pool.join()
                self._mp_pool = None
