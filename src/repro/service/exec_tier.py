"""Multi-core execution tier: leader computations on a persistent process pool.

The solve service keeps its *front* — request parsing, coalescing, the
in-memory result cache, metrics — in the parent process, where shared
mutable state is cheap.  The *computation* is CPU-bound Python, so a
``ThreadPoolExecutor`` serializes K distinct concurrent solves behind the
GIL: a warm server beats a cold CLI by orders of magnitude, yet cannot use
a second core.  This module is the missing back half: a persistent pool of
**long-lived worker processes** the service dispatches leader computations
onto (``repro serve --exec processes --exec-workers N``).

Design
------
* **Workers are resident, not per-task, and run the service's own code.**
  Each worker builds one :class:`~repro.engine.executor.SolveRunner` — the
  per-process solve state every sweep worker and the service itself hold:
  its own :class:`~repro.engine.store.DerivationStore` handle over the
  shared directory, a hot module-granular
  :class:`~repro.engine.cache.DerivationCache` in front, and content-keyed
  instance and planner tables.  The store result-tier probe, the solve and
  the record all come from one implementation.  Before it announces ready,
  a worker (a respawned one too) runs the runner's warm-up of the store's
  most popular workflows' module packs and requirement lists, so its
  first request pays a solve, not a store load.
* **Requests cross the boundary as JSON-shaped bodies.**  Parsed jobs hold
  rebuilt workflows whose callables do not pickle; the tier re-encodes each
  job via :meth:`~repro.service.jobs.SolveJob.to_wire` and the worker
  re-parses it with the same :func:`~repro.service.jobs.parse_solve_payload`
  codec the HTTP front uses.  Results come back as the runner's picklable
  record (a stored error record included — the parent reads ``from_store``
  and ``error`` from it exactly as in thread mode) plus a
  :class:`~repro.engine.cache.CacheStats` delta the parent merges into
  ``/metrics`` — "did the tier save work" stays a counter read.
* **One collector thread multiplexes every worker.**  Each worker gets a
  duplex pipe; the collector blocks in
  :func:`multiprocessing.connection.wait` on all pipes *and all process
  sentinels*, so both results and worker deaths wake it.  A worker killed
  mid-solve (OOM, ``kill -9``) fails **only** the task attached to it —
  the parent resolves that leader's coalescer entry with a 500-mapped
  :class:`~repro.service.jobs.WorkerError` — and is respawned
  (``exec.worker_restarts`` counts it).  Followers are never wedged.
* **One task per worker at a time.**  Dispatch assigns a queued task to an
  idle ready worker; the coalescer already collapsed identical requests,
  so tasks are distinct solves and fairness is trivial FIFO.  A worker that
  is computing is never sent anything (its pipe is not being read), which
  keeps sends non-blocking by construction.

The service keeps the thread pool in *both* modes: in process mode a pool
thread submits to the tier and blocks until the worker answers, so drain
ordering, in-flight accounting and coalescer publication are identical
across modes — the tier only changes where the CPU burns.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import threading
from collections import deque
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, Mapping

from ..engine.executor import SolveRunner
from .jobs import ServiceError, WorkerError, parse_solve_payload, status_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .jobs import SolveJob

__all__ = ["ProcessExecTier", "TierUnavailable"]

#: A request label that makes a worker die mid-solve (``os._exit``).  The
#: crash-recovery tests (and nothing else) submit it: labels ride along the
#: wire but are excluded from the coalescing key, so a poisoned request
#: still coalesces — exactly the "leader's future is lost" scenario the
#: robustness fix must survive deterministically, without timing games.
CRASH_LABEL = "__exec-tier-crash__"


class TierUnavailable(ServiceError):
    """The tier cannot accept work (shut down, or every worker is dead).

    Raised at *submission* time only; the service maps it onto the inline
    fallback (compute on the parent's pool thread) rather than failing the
    request.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, status=503)


def _mp_context() -> Any:
    """A multiprocessing context safe to use from a threaded parent.

    ``fork`` from a process already running pool/collector threads is
    undefined behaviour waiting to happen, so the tier prefers
    ``forkserver`` (cheap spawns after a one-time server start; the repro
    package is preloaded so workers do not re-import it) and falls back to
    ``spawn``.
    """
    try:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.service.exec_tier"])
        return context
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")


# ---------------------------------------------------------------------------
# Worker side (runs in the child process)
# ---------------------------------------------------------------------------

def _worker_main(
    conn: Any, store_path: str | None, reuse_results: bool, warmup: int
) -> None:
    """The worker loop: bootstrap, announce readiness, answer until exit.

    Protocol (tuples over the duplex pipe):
    parent → worker: ``("solve", id, wire)`` | ``("exit",)``
    worker → parent: ``("ready", info)`` | ``("done", id, record, delta)`` |
    ``("error", id, message, status, error_type, delta)``
    """
    runner = SolveRunner(store_path, reuse_results=reuse_results)
    try:
        warmed, _ = runner.warm(warmup)
        # The store serves pre-warmed packs as memory-mapped sidecars;
        # report how much of this worker's warm set is shared mappings so
        # the parent's /metrics can show the per-worker memory win.
        stats = runner.cache.stats()
        conn.send(
            (
                "ready",
                {
                    "pid": os.getpid(),
                    "warmed": warmed,
                    "mmap_packs": stats.mmap_packs,
                    "mmap_bytes": stats.mmap_bytes,
                },
            )
        )
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent went away
                break
            op = message[0]
            if op == "exit":
                break
            if op != "solve":  # pragma: no cover - future-proofing
                continue
            task_id, wire = message[1], message[2]
            if isinstance(wire, Mapping) and wire.get("label") == CRASH_LABEL:
                os._exit(70)  # the deterministic mid-solve death (tests)
            before = runner.cache.stats()
            try:
                record = parse_solve_payload(wire, runner).run(runner)
            except BaseException as exc:  # noqa: BLE001 - forwarded, not fatal
                delta = runner.cache.stats().delta(before).as_dict()
                conn.send(
                    (
                        "error",
                        task_id,
                        str(exc),
                        status_of(exc),
                        type(exc).__name__,
                        delta,
                    )
                )
            else:
                conn.send(("done", task_id, record, record.get("cache", {})))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Task:
    """One dispatched leader computation; resolved via its event."""

    __slots__ = ("id", "wire", "done", "record", "error", "worker")

    def __init__(self, task_id: int, wire: dict[str, Any]) -> None:
        self.id = task_id
        self.wire = wire
        self.done = threading.Event()
        self.record: dict[str, Any] | None = None
        self.error: BaseException | None = None
        self.worker: int | None = None  # index while assigned


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("index", "process", "conn", "task", "ready", "alive")

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.task: _Task | None = None
        self.ready = False  # set when the worker announces its bootstrap
        self.alive = True


class ProcessExecTier:
    """A persistent pool of solve worker processes with crash isolation.

    Parameters
    ----------
    workers:
        Worker processes to keep resident.
    store_path:
        Directory of the shared :class:`~repro.engine.store.DerivationStore`;
        each worker attaches its own handle.  ``None`` gives workers
        cache-only contexts (``--exec processes`` without ``--store``).
    reuse_results:
        Mirror of the service flag: workers probe the store's result tier
        before solving.
    warmup:
        Popular packs each worker (a respawned one too) pre-warms before
        it announces ready.
    max_restarts:
        Total worker respawns before the tier declares itself
        unrecoverable (``healthy() == False``; ``/healthz`` turns 503 and
        the service falls back to inline execution).
    """

    def __init__(
        self,
        workers: int = 2,
        store_path: str | None = None,
        reuse_results: bool = True,
        warmup: int = 0,
        max_restarts: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.workers = workers
        self.store_path = store_path
        self.reuse_results = reuse_results
        self.warmup = warmup
        self.max_restarts = max_restarts
        self._mp = _mp_context()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._queue: "deque[_Task]" = deque()
        self._tasks: dict[int, _Task] = {}
        self._ids = itertools.count(1)
        self._closing = False
        self._paused = False
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.worker_restarts = 0
        self.workers_warmed = 0
        self.workers_mmap_packs = 0
        self.workers_mmap_bytes = 0
        self._worker_cache: dict[str, int] = {}
        self._workers = [self._spawn(index) for index in range(workers)]
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-exec-collector", daemon=True
        )
        self._collector.start()

    # -- spawning ----------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn, self.store_path, self.reuse_results, self.warmup),
            name=f"repro-exec-{index}",
            daemon=True,
        )
        # Non-fork start methods replay the parent's ``__main__`` in the
        # child.  A parent whose main is not a real file (stdin scripts,
        # heredocs) would kill every worker at bootstrap — hide the phantom
        # path for the duration of the start; workers only ever import
        # ``repro``, never the caller's main.
        main = sys.modules.get("__main__")
        main_file = getattr(main, "__file__", None)
        patched = main_file is not None and not os.path.exists(main_file)
        if patched:
            del main.__file__
        try:
            process.start()
        finally:
            if patched:
                main.__file__ = main_file
        child_conn.close()  # parent's copy; EOF must propagate on child death
        return _Worker(index, process, parent_conn)

    # -- the collector (one thread, results + deaths) ----------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                live = [worker for worker in self._workers if worker.alive]
                if self._closing and not live:
                    return
                waitables: list[Any] = []
                owners: dict[Any, _Worker] = {}
                for worker in live:
                    waitables.append(worker.conn)
                    owners[worker.conn] = worker
                    waitables.append(worker.process.sentinel)
                    owners[worker.process.sentinel] = worker
            if not waitables:
                # Unrecoverable (nothing alive, not closing): nothing to
                # multiplex; idle until shutdown wakes us.
                with self._changed:
                    if self._closing:
                        return
                    self._changed.wait(0.2)
                continue
            for item in connection.wait(waitables, timeout=0.2):
                worker = owners[item]
                if item is worker.conn:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._on_worker_death(worker)
                        continue
                    self._on_message(worker, message)
                else:
                    self._on_worker_death(worker)

    def _on_message(self, worker: _Worker, message: tuple) -> None:
        op = message[0]
        with self._changed:
            if op == "ready":
                worker.ready = True
                self.workers_warmed += int(message[1].get("warmed", 0))
                self.workers_mmap_packs += int(message[1].get("mmap_packs", 0))
                self.workers_mmap_bytes += int(message[1].get("mmap_bytes", 0))
                self._dispatch_locked()
            elif op in ("done", "error"):
                task = self._tasks.pop(message[1], None)
                if worker.task is task:
                    worker.task = None
                if op == "done":
                    record, delta = message[2], message[3]
                    if task is not None:
                        task.record = record
                        self.completed += 1
                else:
                    _, text, status, error_type, delta = message[1:]
                    if task is not None:
                        task.error = WorkerError(
                            str(text), status=int(status), error_type=str(error_type)
                        )
                        self.failed += 1
                # Merge the worker's cache delta even when the task was
                # dropped (shutdown race): the counters measure work done.
                for key, value in dict(delta).items():
                    self._worker_cache[key] = (
                        self._worker_cache.get(key, 0) + int(value)
                    )
                if task is not None:
                    task.done.set()
                self._dispatch_locked()
            self._changed.notify_all()

    def _on_worker_death(self, worker: _Worker) -> None:
        # A worker that answered and *then* died may have its final message
        # buffered ahead of the EOF; drain it before declaring the death so
        # a completed task is never failed retroactively.
        try:
            while worker.conn.poll():
                self._on_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        with self._changed:
            if not worker.alive:
                return
            worker.alive = False
            worker.ready = False
            task, worker.task = worker.task, None
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.join(timeout=0)  # reap; the sentinel already fired
            if task is not None:
                self._tasks.pop(task.id, None)
                task.error = WorkerError(
                    f"execution worker {worker.index} "
                    f"(pid {worker.process.pid}) died mid-solve "
                    f"(exit code {worker.process.exitcode}); "
                    "only the requests attached to this computation failed",
                    status=500,
                    error_type="WorkerCrash",
                )
                self.failed += 1
                task.done.set()
            if not self._closing and self.worker_restarts < self.max_restarts:
                try:
                    self._workers[worker.index] = self._spawn(worker.index)
                    self.worker_restarts += 1
                except Exception:  # noqa: BLE001 - spawn can fail under
                    # resource pressure; fall through to the liveness check,
                    # which declares the pool unrecoverable when it empties.
                    pass
            if not any(w.alive for w in self._workers):
                # Dead pool: nothing will ever run what is queued.
                self._fail_queued_locked(
                    "execution tier has no live workers", status=503
                )
            self._changed.notify_all()

    # -- dispatch (callers hold the lock) -----------------------------------------
    def _dispatch_locked(self) -> None:
        if self._paused or self._closing:
            return
        for worker in self._workers:
            if not self._queue:
                return
            if worker.alive and worker.ready and worker.task is None:
                task = self._queue.popleft()
                worker.task = task
                task.worker = worker.index
                self.dispatched += 1
                try:
                    worker.conn.send(("solve", task.id, task.wire))
                except (OSError, ValueError):
                    # The worker is dying; its sentinel will fire and the
                    # death handler fails this (now assigned) task.
                    pass

    def _fail_queued_locked(self, reason: str, status: int) -> None:
        while self._queue:
            task = self._queue.popleft()
            self._tasks.pop(task.id, None)
            task.error = WorkerError(
                reason, status=status, error_type="TierUnavailable"
            )
            self.failed += 1
            task.done.set()

    def _busy_locked(self) -> int:
        return sum(1 for worker in self._workers if worker.task is not None)

    # -- submission ---------------------------------------------------------------
    def submit(self, job: "SolveJob") -> _Task:
        """Queue one leader computation; raises :class:`TierUnavailable`
        when the tier cannot possibly run it (the service then computes
        inline instead of failing the request)."""
        wire = job.to_wire()
        with self._changed:
            if self._closing:
                raise TierUnavailable("execution tier is shut down")
            if not any(worker.alive for worker in self._workers):
                raise TierUnavailable("execution tier has no live workers")
            task = _Task(next(self._ids), wire)
            self._tasks[task.id] = task
            self._queue.append(task)
            self._dispatch_locked()
            self._changed.notify_all()
        return task

    def wait(self, task: _Task, timeout: float | None = None) -> dict[str, Any]:
        """Block until the task resolves; the record, or the forwarded error.

        Like the thread tier, the computation runs to completion regardless
        of caller patience — the service's coalescer wait owns deadlines.
        """
        if not task.done.wait(timeout):
            raise ServiceError(
                f"execution tier task did not complete within {timeout}s",
                status=504,
            )
        if task.error is not None:
            raise task.error
        assert task.record is not None
        return task.record

    # -- test/ops sequencing hooks --------------------------------------------------
    def pause(self) -> None:
        """Hold queued tasks undetached (submits still accepted).

        With dispatch paused, followers can attach to a leader's coalescer
        entry with certainty — the deterministic-coalescing tests (and an
        operator wanting to quiesce workers) use this; :meth:`resume`
        releases the queue.
        """
        with self._changed:
            self._paused = True
            self._changed.notify_all()

    def resume(self) -> None:
        with self._changed:
            self._paused = False
            self._dispatch_locked()
            self._changed.notify_all()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the pool settles: every live worker bootstrapped
        (``True``) or nothing is left alive (``False``, without waiting out
        the timeout)."""

        def _settled() -> bool:
            live = [w for w in self._workers if w.alive]
            return not live or all(w.ready for w in live)

        with self._changed:
            if not self._changed.wait_for(_settled, timeout):
                return False
            return any(w.alive for w in self._workers)

    # -- observability ------------------------------------------------------------
    def healthy(self) -> bool:
        """``False`` once the pool is dead/unrecoverable (or shut down)."""
        with self._lock:
            return not self._closing and any(w.alive for w in self._workers)

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            return {
                "mode": "processes",
                "workers": self.workers,
                "alive": sum(1 for w in self._workers if w.alive),
                "busy": self._busy_locked(),
                "queued": len(self._queue),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "worker_restarts": self.worker_restarts,
                "warmed_packs": self.workers_warmed,
                "mapped_packs": self.workers_mmap_packs,
                "mapped_bytes": self.workers_mmap_bytes,
                "healthy": not self._closing and any(w.alive for w in self._workers),
            }

    def worker_cache_totals(self) -> dict[str, int]:
        """Summed cache-stat deltas of every task the workers answered."""
        with self._lock:
            return dict(self._worker_cache)

    # -- shutdown -----------------------------------------------------------------
    def shutdown(self, wait: bool = True, timeout: float | None = 10.0) -> None:
        """Stop the tier: optionally drain, then exit (or kill) the workers.

        With ``wait`` the tier first waits (up to ``timeout``) for assigned
        and queued tasks to finish; workers then exit on request.  Without
        it, workers are killed — their assigned tasks fail through the
        normal death path, so a caller blocked in :meth:`wait` is always
        released.  Idempotent.
        """
        with self._changed:
            if not self._closing:
                if wait:
                    self._changed.wait_for(
                        lambda: not self._queue and self._busy_locked() == 0,
                        timeout,
                    )
                self._closing = True
                self._fail_queued_locked("execution tier shut down", status=503)
                for worker in self._workers:
                    if worker.alive:
                        try:
                            worker.conn.send(("exit",))
                        except (OSError, ValueError):
                            pass
                self._changed.notify_all()
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        if self._collector.is_alive():
            self._collector.join(timeout=5.0)
