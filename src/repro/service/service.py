"""The long-lived solve service: hot cache, worker pool, coalescing.

A :class:`SolveService` is the process-resident core the HTTP layer
(:mod:`repro.service.server`) fronts.  It owns exactly one
:class:`~repro.engine.cache.DerivationCache` (optionally backed by a
persistent :class:`~repro.engine.store.DerivationStore`) and a thread pool,
and it keeps them **hot**: every request that reaches it reuses the same
compiled kernel packs, per-module requirement lists and planners, so the
amortized cost of a solve approaches the solver call itself — the
interpreter start-up, store attachment and kernel compilation a one-shot
CLI invocation pays per run are paid once per *process*.

Request flow for ``solve_payload``:

1. parse + canonicalize the body into a :class:`~repro.service.jobs.SolveJob`
   (its :attr:`~repro.service.jobs.SolveJob.key` is the coalescing key) —
   or, for an exact byte repeat of an earlier HTTP body, look the parsed
   job up by digest;
2. probe the bounded in-memory **result cache** — a repeat of a completed
   request is answered without touching the pool;
3. :meth:`~repro.service.coalescer.RequestCoalescer.join` — an identical
   in-flight request attaches to the running computation (``coalesced``);
4. a leader submits the computation to the worker pool; completion is
   published through a done-callback, so a leader whose *wait* times out
   still resolves its followers and still populates the caches;
5. the computation is the engine's one cell step, run through the
   service's :class:`~repro.engine.executor.SolveRunner`: the persistent
   store's result tier is probed first (sharing entries with ``repro sweep
   --store`` and warm CLI runs), then the planner solves through the shared
   thread-safe cache.

Steps 2–3 are one *admit* step and the wait that follows is one *collect*
step, shared by ``/solve``, ``/sweep`` and ``/jobs/sweep``:
``sweep_payload`` expands a grid into per-cell jobs and pushes them all
through the same two steps, so sweep cells coalesce with each other and
with concurrent ``/solve`` traffic, and overlapping workflows share the
module tier (``reused_modules`` in ``/metrics`` counts it).

Where a leader computation *burns CPU* is the execution tier
(``exec_mode``): ``"threads"`` runs it on the pool thread itself (one core,
GIL-bound), ``"processes"`` ships it to a persistent
:class:`~repro.service.exec_tier.ProcessExecTier` worker, which runs its
own :class:`~repro.engine.executor.SolveRunner`, so K distinct concurrent
requests use K cores.  Either way the pool thread owns the coalescer
publication and reads the returned record, so everything above this
paragraph is mode-independent.

Shutdown is graceful by construction: :meth:`SolveService.drain` stops
admitting new work (503), waits for every in-flight computation to publish
its result, then shuts the pool down.  Start-up loads nothing: a service
restarted over a warm store answers its first solve of each workflow from
the store's module and result tiers, and re-derives nothing.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from ..engine.executor import SolveRunner, error_record, grid_axes
from ..engine.store import DerivationStore
from .background import JobManager, MaintenanceScheduler
from .coalescer import RequestCoalescer
from .exec_tier import ProcessExecTier, TierUnavailable
from .jobs import (
    InstanceCache,
    ServiceError,
    ServiceTimeout,
    SolveJob,
    parse_solve_payload,
)

__all__ = ["SolveService"]

#: Default bound on completed-result records (FIFO eviction; override per
#: service via ``result_cache_size``).
RESULT_LIMIT = 256


class SolveService:
    """Thread-safe solve core shared by every handler thread.

    Parameters
    ----------
    store:
        Persistent derivation store (instance or directory path) attached
        as the cache's back tier; omit for a purely in-memory service.
    workers:
        Worker threads executing solve computations.  Handler threads never
        compute — they coalesce, submit and wait — so the pool bounds
        concurrent solver work independently of connection count.
    registry:
        Solver registry for dispatch; defaults to the process-wide one.
    default_timeout:
        Per-request deadline (seconds) when the request does not set its
        own ``timeout``; ``None`` waits indefinitely.
    reuse_results:
        Serve repeated completed requests from the in-memory result cache
        and the store's result tier.  Note this applies to seeded *and*
        unseeded randomized solves alike (matching the sweep executor):
        clients wanting fresh randomness per call should vary ``seed``.
    result_cache_size:
        Bound on the completed-result table (FIFO eviction past the
        bound).  The runner's instance and planner tables keep their own
        default bounds.
    job_ttl / max_jobs:
        Async-job table policy (see :class:`~repro.service.background.JobManager`):
        how long a *finished* job stays queryable, and how many jobs the
        table tracks before refusing submits with 429.
    store_max_bytes:
        Byte budget the maintenance pass GCs an attached store down to;
        ``None`` disables the GC task.
    maintenance_interval:
        Seconds between background maintenance passes (jittered ±10%);
        ``0`` or ``None`` disables the thread (tasks still run on demand
        via ``service.maintenance.run_once()``).
    exec_mode:
        Where leader computations burn CPU: ``"threads"`` (default — the
        in-process pool; also the fallback when the process tier is
        unavailable) or ``"processes"`` (a persistent
        :class:`~repro.service.exec_tier.ProcessExecTier`; K *distinct*
        concurrent solves then use K cores instead of timeslicing the
        GIL).  Coalescing, result caches, metrics and drain semantics are
        identical in both modes.
    exec_workers:
        Worker processes for the process tier (defaults to ``workers``);
        only meaningful with ``exec_mode="processes"``.
    replica_id:
        Identity of this replica in a fleet (``repro fleet`` passes
        ``--replica-id r<i>`` to each ``repro serve`` it spawns); surfaced
        in ``/v1/healthz``, ``/v1/metrics`` and ``/v1/version`` so
        operators and the fleet front can tell which process answered.
        ``None`` (the default) means a standalone server.
    """

    def __init__(
        self,
        store: "DerivationStore | str | None" = None,
        workers: int = 4,
        registry: Any = None,
        default_timeout: float | None = 60.0,
        reuse_results: bool = True,
        result_cache_size: int = RESULT_LIMIT,
        job_ttl: float | None = 600.0,
        max_jobs: int = 256,
        store_max_bytes: int | None = None,
        maintenance_interval: float | None = 30.0,
        exec_mode: str = "threads",
        exec_workers: int | None = None,
        replica_id: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # 0 disables the in-memory result cache entirely: every repeat then
        # reads the store's result tier, which is what a fleet benchmark
        # measuring *cross-replica* reuse needs.
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if job_ttl is not None and job_ttl <= 0:
            raise ValueError("job_ttl must be positive (or None)")
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if store_max_bytes is not None and store_max_bytes < 0:
            raise ValueError("store_max_bytes must be non-negative (or None)")
        if maintenance_interval is not None and maintenance_interval < 0:
            raise ValueError("maintenance_interval must be non-negative")
        if exec_mode not in ("threads", "processes"):
            raise ValueError("exec_mode must be 'threads' or 'processes'")
        if exec_workers is not None and exec_workers < 1:
            raise ValueError("exec_workers must be >= 1 (or None)")
        if exec_workers is not None and exec_mode != "processes":
            raise ValueError("exec_workers requires exec_mode='processes'")
        if exec_mode == "processes" and registry is not None:
            raise ValueError(
                "a custom solver registry cannot cross the process boundary; "
                "use exec_mode='threads'"
            )
        #: The in-process solve state; the thread tier (and the process
        #: tier's inline fallback) computes through it.
        self.runner = SolveRunner(store, registry, reuse_results)
        self.cache = self.runner.cache
        self.instances = InstanceCache(self.runner)
        self.replica_id = replica_id
        self.workers = workers
        self.default_timeout = default_timeout
        self.reuse_results = reuse_results
        self.result_cache_size = result_cache_size
        self.pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-solve"
        )
        self.coalescer = RequestCoalescer()
        self._results: OrderedDict[tuple, dict[str, Any]] = OrderedDict()
        self._state = threading.Lock()
        self._idle = threading.Condition(self._state)
        self._in_flight = 0
        self._draining = False
        #: Set the moment a drain begins (before it waits) — lets callers
        #: and tests sequence "no new work admitted" without polling.
        self.drain_started = threading.Event()
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        self._baseline = self.cache.stats()
        self.request_counts: dict[str, int] = {
            "solve": 0,
            "sweep": 0,
            "jobs": 0,
            "healthz": 0,
            "metrics": 0,
        }
        self.error_count = 0
        self.timeout_count = 0
        self.result_hits_memory = 0
        self.result_hits_store = 0
        self.exec_mode = exec_mode
        self.exec_inline_fallbacks = 0
        #: The process execution tier (``None`` in thread mode).  Spawning
        #: is asynchronous — workers announce readiness over their pipes —
        #: so construction does not block on interpreter start-up.
        self.exec_tier: ProcessExecTier | None = None
        if exec_mode == "processes":
            store = self.cache.store
            self.exec_tier = ProcessExecTier(
                workers=exec_workers or workers,
                store_path=str(store.root) if store is not None else None,
                reuse_results=reuse_results,
            )
        self.jobs = JobManager(self, job_ttl=job_ttl, max_jobs=max_jobs)
        self.maintenance = MaintenanceScheduler(
            self, interval=maintenance_interval, store_max_bytes=store_max_bytes
        )
        self.maintenance.start()

    # -- bookkeeping under the state lock ---------------------------------------
    def _count(self, counter: str) -> None:
        with self._state:
            self.request_counts[counter] += 1

    def _count_failure(self, exc: BaseException) -> None:
        with self._state:
            if isinstance(exc, ServiceTimeout):
                self.timeout_count += 1
            else:
                self.error_count += 1

    @property
    def draining(self) -> bool:
        with self._state:
            return self._draining

    @property
    def in_flight(self) -> int:
        """Computations currently queued or running in the pool."""
        with self._state:
            return self._in_flight

    # -- result memoization -----------------------------------------------------
    def _remember_result(self, key: tuple, record: Mapping[str, Any]) -> None:
        if self.result_cache_size == 0:
            return
        with self._state:
            while len(self._results) >= self.result_cache_size:
                self._results.popitem(last=False)
            self._results[key] = dict(record)

    def _lookup_result(self, key: tuple) -> dict[str, Any] | None:
        if self.result_cache_size == 0:
            return None
        with self._state:
            record = self._results.get(key)
            return None if record is None else dict(record)

    # -- the computation (runs on a pool thread) --------------------------------
    def _execute(self, job: SolveJob) -> dict[str, Any]:
        """Run one leader computation on the selected execution tier.

        Process mode ships the job to a tier worker and blocks this pool
        thread until the worker answers — in-flight accounting, drain
        ordering and coalescer publication stay byte-identical to thread
        mode.  A tier that cannot *accept* the job (dead/unrecoverable
        pool) falls back to inline execution (``exec.inline_fallbacks``);
        a failure *while computing* (including a worker crash) propagates
        to everyone attached to this leader, exactly like a thread-mode
        solver failure.  Either tier answers with the runner's record,
        read here the same way.
        """
        record = None
        tier = self.exec_tier
        if tier is not None:
            try:
                task = tier.submit(job)
            except TierUnavailable:
                with self._state:
                    self.exec_inline_fallbacks += 1
            else:
                record = tier.wait(task)
        if record is None:
            record = job.run(self.runner)
        if record["from_store"]:
            with self._state:
                self.result_hits_store += 1
        if "error" in record:
            # A persisted infeasibility (a pure function of workflow
            # content) answers like the fresh solve that raised it: a 422,
            # never a 200 with cost Infinity, and never a cached success.
            raise ServiceError(str(record["error"]), status=422)
        self._remember_result(job.key, record)
        return record

    # -- admission and coalescing -----------------------------------------------
    def _admit(self, job: SolveJob) -> Any:
        """Admit one job: a finished record, or a ``(leader, entry)`` to wait on.

        Answers a completed identical request from the result cache, and
        otherwise joins the identical in-flight computation — or, as its
        leader, starts it on the pool.
        ``/solve``, ``/sweep`` and ``/jobs/sweep`` admit every job here;
        :meth:`_collect` finishes it.
        """
        if self.reuse_results:
            record = self._lookup_result(job.key)
            if record is not None:
                with self._state:
                    self.result_hits_memory += 1
                record["coalesced"] = False
                return record
        leader, entry = self.coalescer.join(job.key)
        if not leader:
            return leader, entry
        with self._state:
            if self._draining:
                refusal = ServiceError("service is draining", status=503)
                self.coalescer.resolve(entry, error=refusal)
                return leader, entry
            self._in_flight += 1
        try:
            future = self.pool.submit(self._execute, job)
        except BaseException as exc:  # noqa: BLE001 - a lost submission must
            # still resolve the single-flight entry: followers attached to
            # this leader would otherwise wait forever on a future that
            # never existed (e.g. submit against a shut-down pool).
            with self._state:
                self._in_flight -= 1
                self._idle.notify_all()
            self.coalescer.resolve(
                entry,
                error=ServiceError(
                    f"could not start computation: {exc}", status=503
                ),
            )
            return leader, entry

        def _publish(fut) -> None:
            error = fut.exception()
            self.coalescer.resolve(
                entry,
                result=None if error is not None else fut.result(),
                error=error,
            )
            with self._state:
                self._in_flight -= 1
                self._idle.notify_all()

        future.add_done_callback(_publish)
        return leader, entry

    def _collect(
        self,
        job: SolveJob,
        admitted: Any,
        timeout: float | None,
        isolate: bool = False,
    ) -> dict[str, Any]:
        """Wait up to ``timeout`` for an admitted job; its record.

        The record says whether it joined another request's computation
        (``coalesced``).  A failure raises — or, with ``isolate`` (sweep and
        job cells), is counted and answered as the cell's error record, so
        one bad cell never fails its grid.
        """
        try:
            if isinstance(admitted, dict):
                record = admitted
            else:
                leader, entry = admitted
                record = dict(self.coalescer.wait(entry, timeout))
                record["coalesced"] = not leader
            # A result-cache hit or a follower holds the record of the
            # request that computed it: give it this request's label.
            record["workflow"] = job.label
            return record
        except BaseException as exc:
            if not isolate:
                raise
            self._count_failure(exc)
            record = error_record(
                job.label, job.gamma, job.kind, job.solver, job.seed, exc
            )
            # null, not float("inf"): Infinity is not valid JSON and this
            # record crosses the HTTP boundary.
            record["cost"] = None
            return record

    def _effective_timeout(self, job: SolveJob) -> float | None:
        return job.timeout if job.timeout is not None else self.default_timeout

    def submit(self, job: SolveJob) -> dict[str, Any]:
        """Run one job end to end (blocking); the solve record."""
        if self.draining:
            raise ServiceError("service is draining", status=503)
        return self._collect(job, self._admit(job), self._effective_timeout(job))

    # -- public endpoints --------------------------------------------------------
    def solve_payload(self, body: Any) -> dict[str, Any]:
        """``POST /solve``: parse, coalesce, compute, answer.

        ``body`` is the decoded JSON object, or the raw request bytes (the
        HTTP path), whose parsed job is memoized by digest
        (:meth:`~repro.service.jobs.InstanceCache.solve_job`).
        """
        self._count("solve")
        try:
            if isinstance(body, bytes):
                job = self.instances.solve_job(body)
            else:
                job = parse_solve_payload(body, self.instances)
            return self.submit(job)
        except BaseException as exc:
            self._count_failure(exc)
            raise

    def sweep_payload(self, body: Any) -> dict[str, Any]:
        """``POST /sweep``: expand an inline grid through the solve pipeline.

        The grid mirrors the executor's: ``workflows`` / ``problems`` are
        arrays of *inline instance payloads* (the service reads no files),
        crossed with ``gammas`` × ``kinds`` × ``solvers`` × ``seeds``.
        Cells fan out concurrently, coalesce with each other and with
        ``/solve`` traffic, and fail in isolation: a solver error yields an
        error record, never a dead sweep.
        """
        self._count("sweep")
        try:
            jobs = self._expand_sweep(body)
        except BaseException as exc:
            self._count_failure(exc)
            raise
        started = time.perf_counter()
        before = self.cache.stats()
        coalesced_before = self.coalescer.coalesced
        admitted = [self._admit(job) for job in jobs]
        # One deadline for the whole request, shared by every cell wait —
        # not one full timeout per cell (a 20-cell grid is one request,
        # not 20 requests' worth of patience).
        timeout = (
            self.default_timeout if not jobs else self._effective_timeout(jobs[0])
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        records: list[dict[str, Any]] = []
        for index, (job, outcome) in enumerate(zip(jobs, admitted)):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            record = self._collect(job, outcome, remaining, isolate=True)
            record["index"] = index
            records.append(record)
        delta = self.cache.stats().delta(before)
        return {
            "cells": len(records),
            "errors": sum(1 for record in records if "error" in record),
            "coalesced": self.coalescer.coalesced - coalesced_before,
            "seconds": time.perf_counter() - started,
            "stats": delta.as_dict(),
            "records": records,
        }

    def _expand_sweep(self, body: Any) -> list[SolveJob]:
        try:
            axes = grid_axes(body)
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        sources = [("workflow", payload) for payload in axes["workflows"]]
        sources += [("problem", payload) for payload in axes["problems"]]
        shared = {"timeout": body["timeout"]} if "timeout" in body else {}
        jobs: list[SolveJob] = []
        for source, payload in sources:
            points = (
                [(None, None)]
                if source == "problem"
                else [
                    (gamma, kind) for gamma in axes["gammas"] for kind in axes["kinds"]
                ]
            )
            for gamma, kind in points:
                for solver in axes["solvers"]:
                    for seed in axes["seeds"]:
                        cell: dict[str, Any] = {
                            source: payload,
                            "solver": solver,
                            "seed": seed,
                            **shared,
                        }
                        if source == "workflow":
                            cell["gamma"] = gamma
                            cell["kind"] = kind
                        jobs.append(parse_solve_payload(cell, self.instances))
        return jobs

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness plus drain and execution-tier health.

        ``draining`` is an explicit boolean (the HTTP layer answers 503 on
        it) so load balancers and job pollers can tell "shutting down"
        from "dead" before the drain completes.  ``healthy`` goes false —
        and the HTTP layer likewise answers 503 — when the process tier's
        pool is dead and unrecoverable (requests still answer, via the
        inline fallback, but the box is degraded to one core).
        """
        self._count("healthz")
        tier = self.exec_tier
        healthy = tier is None or tier.healthy()
        with self._state:
            if self._draining:
                status = "draining"
            else:
                status = "ok" if healthy else "unhealthy"
            return {
                "status": status,
                "draining": self._draining,
                "healthy": healthy,
                "exec_mode": self.exec_mode,
                "in_flight": self._in_flight,
                "replica": self.replica_id,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
            }

    def version(self) -> dict[str, Any]:
        """``GET /v1/version``: package + API version, store format.

        A fleet operator rolling replicas forward reads this per replica to
        confirm which code and which on-disk store format each process
        speaks before readmitting it to rotation.
        """
        from .. import __version__
        from ..engine.store import FORMAT_VERSION

        store = self.cache.store
        store_block = None
        if store is not None:
            store_block = {"root": str(store.root), "format_version": FORMAT_VERSION}
        return {
            "package": __version__,
            "api": "v1",
            "replica": self.replica_id,
            "default_format_version": FORMAT_VERSION,
            "store": store_block,
        }

    def metrics(self) -> dict[str, Any]:
        """``GET /metrics``: request counters, coalescing, cache/store deltas.

        ``cache`` is the :meth:`~repro.engine.cache.CacheStats.delta` of the
        shared cache against the service's start-time baseline, so
        ``reused_modules`` / ``store_hits`` there measure exactly what this
        process served without re-deriving.  In process mode the workers'
        per-task deltas are merged in — and reported separately under
        ``exec.cache`` — so "did the tier save work" reads the same in both
        modes.
        """
        self._count("metrics")
        cache_delta = self.cache.stats().delta(self._baseline)
        store = self.cache.store
        tier = self.exec_tier
        if tier is None:
            exec_block: dict[str, Any] = {
                "mode": "threads",
                "workers": self.workers,
                "alive": self.workers,
                "busy": 0,
                "queued": 0,
                "dispatched": 0,
                "completed": 0,
                "failed": 0,
                "worker_restarts": 0,
                "healthy": True,
            }
            worker_cache: dict[str, int] = {}
        else:
            exec_block = tier.metrics()
            worker_cache = tier.worker_cache_totals()
        exec_block["cache"] = worker_cache
        with self._state:
            payload: dict[str, Any] = {
                "started_at": self._started_at,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "replica": self.replica_id,
                "workers": self.workers,
                "draining": self._draining,
                "in_flight": self._in_flight,
                "requests": dict(self.request_counts),
                "errors": self.error_count,
                "timeouts": self.timeout_count,
                "coalesced": self.coalescer.coalesced,
                "leaders": self.coalescer.leaders,
                "result_hits": {
                    "memory": self.result_hits_memory,
                    "store": self.result_hits_store,
                },
                "cache": cache_delta.as_dict(),
            }
            exec_block["inline_fallbacks"] = self.exec_inline_fallbacks
        # Worker counters fold into the top-level cache totals: clients
        # (and the coalescing benchmark) read one number per counter no
        # matter which tier did the deriving.
        for key, value in worker_cache.items():
            payload["cache"][key] = payload["cache"].get(key, 0) + int(value)
        payload["exec"] = exec_block
        payload["store"] = store.stats() if store is not None else None
        payload["jobs"] = self.jobs.metrics()
        payload["maintenance"] = self.maintenance.metrics()
        return payload

    # -- lifecycle ---------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting work, wait for in-flight computations, stop the pool.

        Order matters: mark draining (new requests and job submits get
        503), cancel active jobs and stop the maintenance thread, wait for
        job runners to collect their in-flight cells, wait out the pool,
        then stop the execution tier (its workers are idle by then — every
        in-flight pool thread was blocked on its tier task).  Nothing is
        written to the store.  Idempotent.  Returns ``True`` when
        everything drained within ``timeout`` (``None`` waits
        indefinitely); on ``False`` the pool is still shut down and the
        tier's workers are killed — which fails their tasks through the
        crash path and releases any pool thread still blocked on one.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def _remaining() -> float | None:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        with self._state:
            self._draining = True
            self.drain_started.set()
        self.jobs.cancel_all()
        self.maintenance.stop()
        self.jobs.join(_remaining())
        with self._state:
            drained = self._idle.wait_for(
                lambda: self._in_flight == 0, _remaining()
            )
        self.pool.shutdown(wait=drained)
        if self.exec_tier is not None:
            self.exec_tier.shutdown(wait=drained, timeout=_remaining())
        return drained
