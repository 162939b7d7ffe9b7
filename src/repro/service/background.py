"""Async jobs and background maintenance for the solve service.

``POST /sweep`` answers when the last cell finishes — fine for a dozen
cells, hostile for a thousand: the client's connection (and its patience)
becomes the scheduler.  This module gives the service the two background
facilities a long-lived process needs:

:class:`JobManager`
    ``POST /jobs/sweep`` validates and expands the grid exactly like the
    synchronous endpoint, then returns a job id immediately.  A per-job
    runner thread pushes the cells through the *same* coalescing/solve
    pipeline as ``/solve`` and ``/sweep`` — async cells coalesce with
    synchronous traffic and share the result cache — dispatching at most
    ``workers`` cells at a time so one huge job cannot monopolize the
    pool's queue.  ``GET /jobs/<id>`` reports the state machine
    (``pending → running → done | failed | cancelled``), per-cell progress
    counters and the **partial records** collected so far, in cell-index
    order.  ``DELETE /jobs/<id>`` cancels: in-flight cells finish (worker
    threads cannot be interrupted, and their results are cached for
    whoever asks next), pending cells are dropped and counted.  Finished
    jobs expire after a TTL from a bounded table, so a service polled by
    crashing clients never leaks job state.

:class:`MaintenanceScheduler`
    One daemon thread owning periodic housekeeping, with jittered
    intervals (a fleet of services sharing one store must not GC in
    lockstep) and per-task failure isolation (a GC crash increments a
    counter; it never kills job expiry, and never the thread).  Tasks:
    job-table expiry, popularity flushing, and store GC to a byte budget.
    The result, instance and planner tables need no pass: each is bounded
    by size.  At start-up it also performs **warm-up**: after a restart
    over a warm store, load the private-module packs of the K
    most-requested workflow fingerprints and preload the (Γ, kind,
    backend) points their requests asked for — the popularity record the
    flush task writes to the store's meta tier — so the first solve of a
    popular instance hits the hot cache instead of the store.
    Execution-tier workers run the same warm-up when they spawn.

Everything is observable through ``GET /metrics``: job gauges/counters
under ``jobs``, and ``maintenance.{gc_runs, gc_deleted_bytes,
warmed_packs, ...}``.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any

from .jobs import TERMINAL_JOB_STATES, ServiceError, SolveJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import SolveService

__all__ = ["JobManager", "MaintenanceScheduler", "SweepJob"]


class SweepJob:
    """One asynchronous sweep: cells, progress counters, partial records.

    Mutable fields are guarded by the owning :class:`JobManager`'s lock;
    the runner thread is the only writer of ``records`` (append-only, in
    cell-index order), so a status snapshot is always a valid prefix of
    the final report.
    """

    __slots__ = (
        "id",
        "state",
        "cells",
        "total",
        "completed",
        "failed",
        "dropped",
        "records",
        "error",
        "created_at",
        "created_monotonic",
        "started_monotonic",
        "finished_monotonic",
        "cancel",
        "finished",
    )

    def __init__(self, job_id: str, cells: list[SolveJob]) -> None:
        self.id = job_id
        self.state = "pending"
        self.cells = cells
        self.total = len(cells)
        self.completed = 0
        self.failed = 0
        self.dropped = 0
        self.records: list[dict[str, Any]] = []
        self.error: str | None = None
        self.created_at = time.time()
        self.created_monotonic = time.monotonic()
        self.started_monotonic: float | None = None
        self.finished_monotonic: float | None = None
        #: Set by cancellation (or drain); the runner stops dispatching.
        self.cancel = threading.Event()
        #: Set exactly once, when the job enters a terminal state.
        self.finished = threading.Event()

    def seconds(self) -> float | None:
        """Run time so far (or total, once finished); ``None`` if pending."""
        if self.started_monotonic is None:
            return None
        end = self.finished_monotonic
        return (time.monotonic() if end is None else end) - self.started_monotonic

    def as_dict(self, with_records: bool = True) -> dict[str, Any]:
        """A status snapshot (caller holds the manager lock)."""
        payload: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "cells": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "pending": self.total - self.completed - self.failed - self.dropped,
            "created_at": self.created_at,
            "seconds": self.seconds(),
        }
        if self.error is not None:
            payload["error"] = self.error
        if with_records:
            payload["records"] = list(self.records)
        return payload


class JobManager:
    """Bounded table of asynchronous sweeps, each driven by a runner thread.

    Parameters
    ----------
    service:
        The owning :class:`~repro.service.service.SolveService`; cells are
        admitted through its coalescer and worker pool.
    job_ttl:
        Seconds a *finished* job stays queryable before :meth:`expire`
        removes it; ``None`` keeps finished jobs until evicted by the
        table bound.
    max_jobs:
        Bound on tracked jobs.  A submit against a full table first
        expires stale jobs, then evicts the oldest finished one; if every
        slot holds an active job the submit is refused with 429.
    """

    def __init__(
        self,
        service: "SolveService",
        job_ttl: float | None = 600.0,
        max_jobs: int = 256,
    ) -> None:
        self.service = service
        self.job_ttl = job_ttl
        self.max_jobs = max_jobs
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: "OrderedDict[str, SweepJob]" = OrderedDict()
        self._threads: dict[str, threading.Thread] = {}
        self.submitted = 0
        self.finished_counts = {state: 0 for state in TERMINAL_JOB_STATES}
        self.expired = 0
        self.cells_completed = 0
        self.cells_failed = 0
        self.cells_dropped = 0

    # -- public endpoints --------------------------------------------------------
    def submit(self, body: Any) -> dict[str, Any]:
        """``POST /jobs/sweep``: validate, register, start; the job handle.

        Validation is synchronous (a malformed grid is a 400 on the
        submit, never a failed job), execution is not: the returned
        ``{"job": id, "state": ..., "cells": n}`` arrives before any cell
        runs.
        """
        self.service._count("jobs")
        if self.service.draining:
            raise ServiceError("service is draining", status=503)
        cells = self.service._expand_sweep(body)
        job = SweepJob(uuid.uuid4().hex[:12], cells)
        runner = threading.Thread(
            target=self._run, args=(job,), name=f"repro-job-{job.id}", daemon=True
        )
        with self._changed:
            self._expire_locked()
            if len(self._jobs) >= self.max_jobs and not self._evict_finished_locked():
                raise ServiceError(
                    f"job table is full ({self.max_jobs} active jobs); retry later",
                    status=429,
                )
            self._jobs[job.id] = job
            self._threads[job.id] = runner
            self.submitted += 1
        runner.start()
        return {"job": job.id, "state": job.state, "cells": job.total}

    def status(self, job_id: str, with_records: bool = True) -> dict[str, Any]:
        """``GET /jobs/<id>``: the state snapshot (404 on unknown/expired)."""
        self.service._count("jobs")
        with self._lock:
            return self._get_locked(job_id).as_dict(with_records)

    def list_jobs(self) -> list[dict[str, Any]]:
        """``GET /jobs``: summaries (no records), oldest submission first."""
        self.service._count("jobs")
        with self._lock:
            return [job.as_dict(with_records=False) for job in self._jobs.values()]

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /jobs/<id>``: stop dispatching; drop pending cells.

        In-flight cells finish (their results land in the shared caches);
        the job reaches ``cancelled`` once the runner has collected them.
        Cancelling a finished job is a no-op that reports the final state.
        """
        self.service._count("jobs")
        with self._changed:
            job = self._get_locked(job_id)
            if job.state not in TERMINAL_JOB_STATES:
                job.cancel.set()
            self._changed.notify_all()
            payload = job.as_dict(with_records=False)
        payload["cancel_requested"] = True
        return payload

    # -- synchronization helpers -------------------------------------------------
    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job finishes; its final status (with records)."""
        with self._lock:
            job = self._get_locked(job_id)
        if not job.finished.wait(timeout):
            raise ServiceError(
                f"job {job_id!r} did not finish within {timeout}s", status=504
            )
        with self._lock:
            return job.as_dict()

    def await_progress(
        self, job_id: str, count: int, timeout: float | None = None
    ) -> bool:
        """Block until ``job_id`` holds at least ``count`` records.

        Condition-based (no polling); lets tests sequence "some cells
        landed, more to come" deterministically.  Returns ``False`` on
        timeout; a job reaching a terminal state satisfies the wait.
        """
        with self._changed:
            return self._changed.wait_for(
                lambda: (
                    (job := self._jobs.get(job_id)) is not None
                    and (
                        len(job.records) >= count
                        or job.state in TERMINAL_JOB_STATES
                    )
                ),
                timeout,
            )

    # -- table maintenance -------------------------------------------------------
    def expire(self, now: float | None = None) -> int:
        """Drop finished jobs older than ``job_ttl``; the number dropped.

        ``now`` (a ``time.monotonic`` value) is injectable so tests can
        advance the clock without sleeping.
        """
        with self._changed:
            return self._expire_locked(now)

    def _expire_locked(self, now: float | None = None) -> int:
        if self.job_ttl is None:
            return 0
        now = time.monotonic() if now is None else now
        stale = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in TERMINAL_JOB_STATES
            and job.finished_monotonic is not None
            and now - job.finished_monotonic >= self.job_ttl
        ]
        for job_id in stale:
            del self._jobs[job_id]
        self.expired += len(stale)
        if stale:
            self._changed.notify_all()
        return len(stale)

    def _evict_finished_locked(self) -> bool:
        for job_id, job in self._jobs.items():
            if job.state in TERMINAL_JOB_STATES:
                del self._jobs[job_id]
                return True
        return False

    def _get_locked(self, job_id: str) -> SweepJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", status=404)
        return job

    # -- shutdown ----------------------------------------------------------------
    def cancel_all(self) -> int:
        """Cancel every active job (drain calls this); the number cancelled."""
        with self._changed:
            cancelled = 0
            for job in self._jobs.values():
                if job.state not in TERMINAL_JOB_STATES:
                    job.cancel.set()
                    cancelled += 1
            self._changed.notify_all()
        return cancelled

    def join(self, timeout: float | None = None) -> bool:
        """Wait for every runner thread to exit; ``True`` when all did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            runners = list(self._threads.values())
        alive = False
        for runner in runners:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            runner.join(remaining)
            alive = alive or runner.is_alive()
        return not alive

    # -- observability -----------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        with self._lock:
            active = sum(
                1
                for job in self._jobs.values()
                if job.state not in TERMINAL_JOB_STATES
            )
            return {
                "submitted": self.submitted,
                "active": active,
                "tracked": len(self._jobs),
                "done": self.finished_counts["done"],
                "failed": self.finished_counts["failed"],
                "cancelled": self.finished_counts["cancelled"],
                "expired": self.expired,
                "cells": {
                    "completed": self.cells_completed,
                    "failed": self.cells_failed,
                    "dropped": self.cells_dropped,
                },
            }

    # -- the runner (one daemon thread per job) ----------------------------------
    def _run(self, job: SweepJob) -> None:
        service = self.service
        # At most `workers` cells dispatched at once: the job makes full
        # use of the pool without flooding its queue, so concurrent /solve
        # traffic still gets slots at worker-pool granularity.
        window = max(1, service.workers)
        try:
            with self._changed:
                if job.cancel.is_set():
                    self._finish_locked(job, "cancelled")
                    return
                job.state = "running"
                job.started_monotonic = time.monotonic()
                self._changed.notify_all()
            pending = deque(enumerate(job.cells))
            active: "deque[tuple[int, SolveJob, Any]]" = deque()
            while pending or active:
                while pending and len(active) < window and not job.cancel.is_set():
                    # Admitted from this runner thread, never from a pool
                    # thread: a runner waiting on pool work from inside the
                    # pool would consume the very slot the computation needs.
                    index, cell = pending.popleft()
                    active.append((index, cell, service._admit(cell)))
                if not active:
                    break  # cancelled with nothing left in flight
                # Collect in dispatch (= cell-index) order, so `records`
                # is always a prefix of the final report and progress
                # counters are monotone.
                index, cell, admitted = active.popleft()
                record = service._collect(
                    cell, admitted, service._effective_timeout(cell), isolate=True
                )
                record["index"] = index
                with self._changed:
                    job.records.append(record)
                    if "error" in record:
                        job.failed += 1
                        self.cells_failed += 1
                    else:
                        job.completed += 1
                        self.cells_completed += 1
                    self._changed.notify_all()
            with self._changed:
                if job.cancel.is_set():
                    job.dropped = job.total - len(job.records)
                    self.cells_dropped += job.dropped
                    self._finish_locked(job, "cancelled")
                else:
                    self._finish_locked(job, "done")
        except BaseException as exc:  # noqa: BLE001 - runner must record, not die
            with self._changed:
                job.error = f"{type(exc).__name__}: {exc}"
                job.dropped = job.total - len(job.records)
                self.cells_dropped += job.dropped
                self._finish_locked(job, "failed")

    def _finish_locked(self, job: SweepJob, state: str) -> None:
        job.state = state
        job.finished_monotonic = time.monotonic()
        self.finished_counts[state] += 1
        self._threads.pop(job.id, None)
        job.finished.set()
        self._changed.notify_all()


class MaintenanceScheduler:
    """Periodic housekeeping on one daemon thread, plus on-demand warm-up.

    Parameters
    ----------
    service:
        The owning service; tasks reach its caches, job table and store.
    interval:
        Seconds between maintenance passes; ``None`` or ``0`` disables the
        thread (``run_once`` still works for tests and manual calls).
    store_max_bytes:
        Byte budget the store is GC'd down to each pass; ``None`` disables
        the GC task.
    """

    #: Periodic tasks, in execution order; each failure-isolated.
    TASKS = ("expire_jobs", "flush_popularity", "gc_store")

    def __init__(
        self,
        service: "SolveService",
        interval: float | None = 30.0,
        store_max_bytes: int | None = None,
    ) -> None:
        self.service = service
        self.interval = interval
        self.store_max_bytes = store_max_bytes
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # Serializes passes (the thread vs. a manual run_once) without
        # blocking metrics reads.
        self._run_lock = threading.Lock()
        self.runs = 0
        self.gc_runs = 0
        self.gc_deleted_bytes = 0
        self.expired_jobs = 0
        self.warmed_packs = 0
        self.popularity_flushes = 0
        self.task_failures = {name: 0 for name in self.TASKS + ("warm_up",)}

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "MaintenanceScheduler":
        with self._lock:
            if self._thread is not None or not self.interval:
                return self
            self._thread = threading.Thread(
                target=self._loop, name="repro-maintenance", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the thread (idempotent); waits for an in-progress pass."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout)

    def _delay(self) -> float:
        # ±10%, so replicas sharing a store do not run GC in lockstep.
        spread = float(self.interval) * 0.1
        return max(0.05, float(self.interval) + random.uniform(-spread, spread))

    def _loop(self) -> None:
        while not self._stop.wait(self._delay()):
            self.run_once()

    # -- one maintenance pass ----------------------------------------------------
    def run_once(self) -> dict[str, Any]:
        """Run every task once, each in isolation; a per-task summary.

        A task that raises increments ``task_failures[name]`` and leaves
        the rest of the pass (and the thread) untouched — one bad disk
        must not stop job expiry.
        """
        summary: dict[str, Any] = {}
        with self._run_lock:
            for name in self.TASKS:
                try:
                    summary[name] = getattr(self, f"_task_{name}")()
                except Exception as exc:  # noqa: BLE001 - isolation by design
                    with self._lock:
                        self.task_failures[name] += 1
                    summary[name] = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.runs += 1
        return summary

    def _task_expire_jobs(self) -> int:
        expired = self.service.jobs.expire()
        if expired:
            with self._lock:
                self.expired_jobs += expired
        return expired

    def _task_flush_popularity(self) -> int:
        flushed = self.service.flush_popularity()
        if flushed:
            with self._lock:
                self.popularity_flushes += 1
        return flushed

    def _task_gc_store(self) -> dict[str, int] | None:
        store = self.service.cache.store
        if store is None or self.store_max_bytes is None:
            return None
        result = store.gc(self.store_max_bytes)
        with self._lock:
            self.gc_runs += 1
            self.gc_deleted_bytes += result["freed_bytes"]
        return result

    # -- warm-up -----------------------------------------------------------------
    def warm_up(self, k: int) -> int:
        """Preload the ``k`` most-requested stored workflows into the hot cache.

        Runs the service runner's :meth:`~repro.engine.executor.SolveRunner.warm`
        (the same warm-up every execution-tier worker runs at spawn), so
        after a restart the first solve of a popular fingerprint, verified
        or not, reports no store hit and no derivation: its module packs
        and requirement lists are already in memory.  Returns the number
        of workflows warmed; per-workflow failures count under
        ``task_failures["warm_up"]``.
        """
        warmed, failed = self.service.runner.warm(k)
        with self._lock:
            self.warmed_packs += warmed
            self.task_failures["warm_up"] += failed
        return warmed

    # -- observability -----------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        with self._lock:
            return {
                "interval": self.interval,
                "runs": self.runs,
                "gc_runs": self.gc_runs,
                "gc_deleted_bytes": self.gc_deleted_bytes,
                "expired_jobs": self.expired_jobs,
                "warmed_packs": self.warmed_packs,
                "popularity_flushes": self.popularity_flushes,
                "task_failures": dict(self.task_failures),
            }
