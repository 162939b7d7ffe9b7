"""Serving benchmark: a warm long-lived server vs one-shot CLI processes.

Every pre-service surface pays interpreter start-up, imports, store
attachment and derivation per invocation.  The solve service
(:mod:`repro.service`) pays them once per *process* and additionally
coalesces identical concurrent requests into one computation.  This
benchmark records both effects in ``BENCH_service.json``:

* **throughput** — N sequential one-shot CLI solves (cold subprocesses, the
  pre-service execution model) vs N requests against an already-warm
  ``repro serve`` over real HTTP.  The win is the per-process start-up the
  server amortizes away, plus the cached results: a warm keep-alive round
  trip costs about a millisecond against most of a second per CLI run.
  The floor (:data:`SPEEDUP_FLOOR`) is 100x, which a transport stall on
  every response (~40 ms, measured 16–37x tiny) cannot meet.
* **coalescing** — K identical concurrent ``/solve`` requests, fired
  through a start barrier while the first computation is still deriving,
  must perform **exactly one** requirement derivation: the ``coalesced``
  counter ends at ``K - 1`` and the cache's ``derivation_misses`` delta at
  1.  Thread scheduling is the only nondeterminism, so the phase sizes the
  instance to keep derivation well above scheduling jitter (and retries a
  fresh service up to 3 times before declaring failure).
* **async jobs** — an N-cell grid posted to ``/jobs/sweep`` must hand back
  its job handle in well under 100 ms (the submit latency is the point of
  the endpoint); the record also captures the background cell throughput.
  ``--jobs-only`` runs just this phase.
* **module reuse** — a distinct-but-overlapping follow-up workflow reuses
  the shared module tier (``reused_modules``), proving that the serving win
  is not limited to byte-identical requests.
* **scaling** — N *distinct* concurrent requests (distinct workflows, so
  nothing coalesces and nothing caches) against the thread tier vs the
  process execution tier at ``--exec-workers`` 1, 2 and 4.  The thread
  tier timeslices one core behind the GIL; the process tier should
  approach linear scaling on real cores.  The recorded floor for the
  4-worker speedup is hardware-conditional (``scaling.floor``): 2x where
  ``os.cpu_count() >= 4``, a sanity floor on smaller boxes where the win
  is physically unmeasurable — the regression gate reads the floor from
  the record.  The phase also re-runs the coalescing check in process
  mode: K identical in-flight requests must still perform exactly one
  derivation, on one worker.
* **replicas** — the same distinct traffic against ``repro fleet`` fronts
  of 1, 2 and 4 single-process replicas: one replica timeslices the GIL,
  N replicas are N interpreters, so on real cores the curve should bend
  like the process tier's (floor recorded as ``replicas.floor``, same
  hardware conditionality as ``scaling.floor``).  The phase also proves
  the *shared-store* reuse invariant: K identical requests through a
  2-replica fleet with ``--result-cache-size 0`` perform exactly one
  derivation fleet-wide — every repeat is a store result-tier hit,
  whichever replica it lands on.

Run standalone (used by the CI regression gate) with::

    python benchmarks/bench_service.py --tiny
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core import Workflow
from repro.service import ServiceClient, ServiceServer, SolveService
from repro.workloads import random_problem, random_total_module, workflow_to_dict
from repro.workloads.serialization import problem_to_dict

REPO_ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = REPO_ROOT / "BENCH_service.json"

#: Acceptance floor: warm-server throughput over sequential cold CLI solves.
#: Healthy runs measure ~1000x; a ~40 ms stall per response measures
#: 16–37x.
SPEEDUP_FLOOR = 100.0

#: Concurrent identical requests in the coalescing phase.
K_CONCURRENT = 6

#: Execution-tier sizes the scaling phase times distinct traffic against.
SCALING_WORKER_COUNTS = (1, 2, 4)

#: Floor for ``thread_seconds / process_4_workers_seconds``.  On >= 4 cores
#: the 4-worker process tier must at least double the GIL-bound thread
#: tier; on smaller boxes the win is physically unmeasurable, so the floor
#: degrades to a sanity bound ("the tier is not pathologically slower").
#: The regression gate dereferences the floor from the record
#: (``@scaling.floor``) rather than hard-coding either value.
SCALING_FLOOR_MULTICORE = 2.0
SCALING_FLOOR_FALLBACK = 0.2



def _derivation_heavy_workflow(tiny: bool, reroll: int | None = None) -> Workflow:
    """A workflow whose requirement derivation dominates thread jitter.

    ``reroll`` replaces one module's table with a fresh random one, giving a
    distinct-but-overlapping workflow for the module-reuse phase.
    """
    shape = (5, 4) if tiny else (6, 5)
    n_modules = 3 if tiny else 4
    modules = [
        random_total_module(300 + index, *shape, f"m{index}", f"s{index}_")
        for index in range(n_modules)
    ]
    if reroll is not None:
        slot = reroll % n_modules
        modules[slot] = random_total_module(
            9000 + reroll, *shape, f"m{slot}", f"s{slot}_"
        )
    name = "service-bench" if reroll is None else f"service-bench-edit{reroll}"
    return Workflow(modules, name=name)


# ---------------------------------------------------------------------------
# Phase 1: warm server vs sequential cold CLI
# ---------------------------------------------------------------------------

def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def run_throughput_phase(tiny: bool, workdir: Path) -> dict:
    from repro.workloads.serialization import dump_problem

    n_requests = 3 if tiny else 5
    problem = random_problem(n_modules=4, kind="set", seed=17, gamma=2)
    problem_path = workdir / "bench-service-problem.json"
    dump_problem(problem, str(problem_path))
    payload = problem_to_dict(problem)

    cli_command = [
        sys.executable, "-m", "repro.cli",
        "solve", str(problem_path), "--solver", "auto",
    ]
    env = _cli_env()
    cold_started = time.perf_counter()
    for _ in range(n_requests):
        completed = subprocess.run(
            cli_command, env=env, capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr
    cold_seconds = time.perf_counter() - cold_started

    store_dir = workdir / "bench-service-store"
    service = SolveService(store=str(store_dir), workers=2, default_timeout=120.0)
    server = ServiceServer(service, port=0).start()
    try:
        client = ServiceClient(server.url, timeout=120.0)
        client.solve(problem=payload, solver="auto")  # warm-up
        warm_started = time.perf_counter()
        for _ in range(n_requests):
            record = client.solve(problem=payload, solver="auto")
            assert record["cost"] > 0
        warm_seconds = time.perf_counter() - warm_started
    finally:
        server.stop(drain_timeout=30)

    from repro.engine import DerivationStore

    store_disk_bytes = DerivationStore(store_dir).disk_stats()["bytes"]
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    return {
        "requests": n_requests,
        "cold_cli_seconds_total": cold_seconds,
        "warm_server_seconds_total": warm_seconds,
        "speedup_warm_server": speedup,
        "store_disk_bytes": store_disk_bytes,
    }


# ---------------------------------------------------------------------------
# Phase 2: K identical concurrent requests -> one derivation
# ---------------------------------------------------------------------------

def _coalesce_once(tiny: bool, attempt: int, exec_mode: str = "threads") -> dict:
    workflow = _derivation_heavy_workflow(tiny)
    payload = workflow_to_dict(workflow)
    body = {"workflow": payload, "gamma": 2, "kind": "cardinality", "solver": "auto"}
    exec_workers = 2 if exec_mode == "processes" else None
    service = SolveService(
        workers=2, default_timeout=300.0,
        exec_mode=exec_mode, exec_workers=exec_workers,
        maintenance_interval=None,
    )
    if service.exec_tier is not None:
        assert service.exec_tier.wait_ready(120)
        # Hold dispatch until every request has attached: the process-mode
        # check is deterministic — no barrier racing, no retries.
        service.exec_tier.pause()
    barrier = threading.Barrier(K_CONCURRENT)
    results: list[dict | None] = [None] * K_CONCURRENT
    errors: list[BaseException] = []

    def call(slot: int) -> None:
        try:
            barrier.wait(timeout=60)
            results[slot] = service.solve_payload(dict(body))
        except BaseException as exc:  # noqa: BLE001 - reported via the record
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(K_CONCURRENT)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if service.exec_tier is not None:
        from repro.service import parse_solve_payload

        key = parse_solve_payload(dict(body), service.instances).key
        assert service.coalescer.await_waiters(key, K_CONCURRENT, timeout=60)
        service.exec_tier.resume()
    for thread in threads:
        thread.join(timeout=300)
    seconds = time.perf_counter() - started
    assert not errors, errors
    metrics = service.metrics()
    service.drain(timeout=30)
    costs = {record["cost"] for record in results}  # type: ignore[index]
    assert len(costs) == 1, costs
    return {
        "attempt": attempt,
        "exec_mode": exec_mode,
        "requests": K_CONCURRENT,
        "coalesced": metrics["coalesced"],
        "derivations": metrics["cache"]["derivation_misses"],
        "dispatched": metrics["exec"]["dispatched"],
        "seconds": seconds,
    }


def run_coalescing_phase(tiny: bool) -> dict:
    # Scheduling is the only nondeterminism: every follower must reach the
    # coalescer while the leader's derivation (tens of ms at these shapes)
    # is still running.  Fine-grained thread switching plus up to three
    # attempts make a miss vanishingly unlikely without hiding a real bug —
    # a correctness regression fails all three identically.
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for attempt in range(1, 4):
            outcome = _coalesce_once(tiny, attempt)
            if (
                outcome["coalesced"] == K_CONCURRENT - 1
                and outcome["derivations"] == 1
            ):
                return outcome
        return outcome  # the caller asserts and reports the last attempt
    finally:
        sys.setswitchinterval(previous_interval)


def run_process_coalescing_phase(tiny: bool) -> dict:
    """K identical in-flight requests on the *process* tier: the coalescing
    invariant must hold across the process boundary — one leader, one
    dispatch, one derivation (in a worker, its cache delta merged back)."""
    outcome = _coalesce_once(tiny, attempt=1, exec_mode="processes")
    assert outcome["coalesced"] == K_CONCURRENT - 1, outcome
    assert outcome["derivations"] == 1, outcome
    assert outcome["dispatched"] == 1, outcome
    return outcome


# ---------------------------------------------------------------------------
# Phase 3: async job mode — submit latency and background throughput
# ---------------------------------------------------------------------------

def run_jobs_phase(tiny: bool) -> dict:
    """``POST /jobs/sweep`` answers immediately; cells land in background.

    Measures the submit latency (the whole point of the async endpoint:
    the handle must come back in well under 100 ms regardless of grid
    size) and the background throughput of the job over real HTTP.
    """
    n_cells = 20 if tiny else 50
    payload = workflow_to_dict(_derivation_heavy_workflow(tiny))
    grid = {
        "workflows": [payload],
        "gammas": [2],
        "kinds": ["cardinality"],
        "solvers": ["auto"],
        "seeds": list(range(n_cells)),
    }
    service = SolveService(workers=2, default_timeout=300.0)
    server = ServiceServer(service, port=0).start()
    try:
        client = ServiceClient(server.url, timeout=300.0)
        submit_started = time.perf_counter()
        handle = client.request("POST", "/jobs/sweep", grid)
        submit_seconds = time.perf_counter() - submit_started
        final = client.wait_job(handle["job"], timeout=300, poll=0.05)
        wall_seconds = final["seconds"]
        metrics = client.metrics()
    finally:
        server.stop(drain_timeout=30)
    assert final["state"] == "done", final
    assert final["completed"] == n_cells, final
    assert metrics["jobs"]["done"] == 1, metrics["jobs"]
    assert metrics["jobs"]["cells"]["completed"] == n_cells, metrics["jobs"]
    return {
        "cells": n_cells,
        "submit_seconds": submit_seconds,
        "wall_seconds": wall_seconds,
        "cells_per_second": n_cells / wall_seconds if wall_seconds else float("inf"),
    }


# ---------------------------------------------------------------------------
# Phase 4: overlapping (non-identical) requests share the module tier
# ---------------------------------------------------------------------------

def run_module_reuse_phase(tiny: bool) -> dict:
    service = SolveService(workers=2, default_timeout=300.0)
    base = workflow_to_dict(_derivation_heavy_workflow(tiny))
    edited = workflow_to_dict(_derivation_heavy_workflow(tiny, reroll=0))
    service.solve_payload({"workflow": base, "gamma": 2, "kind": "cardinality"})
    service.solve_payload({"workflow": edited, "gamma": 2, "kind": "cardinality"})
    metrics = service.metrics()
    service.drain(timeout=30)
    n_modules = len(base["modules"])
    return {
        "modules_per_workflow": n_modules,
        "rederived_modules": metrics["cache"]["rederived_modules"],
        "reused_modules": metrics["cache"]["reused_modules"],
        "expected_rederived": n_modules + 1,
        "expected_reused": n_modules - 1,
    }


# ---------------------------------------------------------------------------
# Phase 5: execution-tier scaling — distinct traffic vs --exec-workers
# ---------------------------------------------------------------------------

def _scaling_bodies(tiny: bool) -> list[dict]:
    """Distinct derivation-heavy workflows: nothing coalesces, nothing is
    served from a cache — every request is a real, independent computation."""
    n_requests = 4 if tiny else 8
    shape = (5, 4) if tiny else (6, 5)
    n_modules = 3 if tiny else 4
    bodies = []
    for index in range(n_requests):
        modules = [
            random_total_module(
                7000 + index * 31 + slot, *shape, f"m{slot}", f"s{slot}_"
            )
            for slot in range(n_modules)
        ]
        workflow = Workflow(modules, name=f"scaling-{index}")
        bodies.append(
            {
                "workflow": workflow_to_dict(workflow),
                "gamma": 2,
                "kind": "cardinality",
                "solver": "auto",
            }
        )
    return bodies


def _timed_distinct_run(
    bodies: list[dict], exec_mode: str, exec_workers: int | None
) -> float:
    """Fire every body concurrently against a fresh service; wall seconds."""
    service = SolveService(
        workers=len(bodies), default_timeout=600.0,
        exec_mode=exec_mode, exec_workers=exec_workers,
        maintenance_interval=None,
    )
    if service.exec_tier is not None:
        # Time the steady state, not interpreter start-up: workers must
        # have bootstrapped before the clock starts.
        assert service.exec_tier.wait_ready(120)
    barrier = threading.Barrier(len(bodies))
    errors: list[BaseException] = []

    def call(body: dict) -> None:
        try:
            barrier.wait(timeout=60)
            record = service.solve_payload(dict(body))
            assert record["cost"] >= 0
        except BaseException as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(body,)) for body in bodies]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    seconds = time.perf_counter() - started
    assert not errors, errors
    metrics = service.metrics()
    service.drain(timeout=30)
    assert metrics["coalesced"] == 0, metrics  # the traffic really is distinct
    if exec_mode == "processes":
        assert metrics["exec"]["dispatched"] == len(bodies), metrics["exec"]
        assert metrics["exec"]["inline_fallbacks"] == 0, metrics["exec"]
    return seconds


def run_scaling_phase(tiny: bool) -> dict:
    bodies = _scaling_bodies(tiny)
    thread_seconds = _timed_distinct_run(bodies, "threads", None)
    process_seconds = {
        workers: _timed_distinct_run(bodies, "processes", workers)
        for workers in SCALING_WORKER_COUNTS
    }
    cpus = os.cpu_count() or 1
    floor = SCALING_FLOOR_MULTICORE if cpus >= 4 else SCALING_FLOOR_FALLBACK
    best = process_seconds[SCALING_WORKER_COUNTS[-1]]
    return {
        "requests": len(bodies),
        "thread_seconds": thread_seconds,
        "process_seconds": {str(w): s for w, s in process_seconds.items()},
        "speedup_4_workers": thread_seconds / best if best > 0 else float("inf"),
        "cpus": cpus,
        "floor": floor,
    }


# ---------------------------------------------------------------------------
# Phase 6: replica fleet — distinct traffic vs fleet size; shared-store reuse
# ---------------------------------------------------------------------------

#: Fleet sizes the replica phase times distinct traffic against.
REPLICA_COUNTS = (1, 2, 4)

#: Floor for ``fleet_1_replica_seconds / fleet_4_replicas_seconds``.  Same
#: hardware conditionality as the exec-tier scaling floor: each replica is
#: one GIL-bound process, so on >= 4 cores four replicas must at least
#: double one; on smaller boxes the floor degrades to a sanity bound.  The
#: regression gate dereferences ``@replicas.floor`` from the record.
REPLICAS_FLOOR_MULTICORE = 2.0
REPLICAS_FLOOR_FALLBACK = 0.2


def _timed_fleet_run(bodies: list[dict], n_replicas: int) -> float:
    """Fire every body concurrently at a fleet front; wall seconds.

    Each replica is a full ``repro serve`` process (thread workers, no
    process exec tier), so the curve isolates what *replication* buys:
    one replica timeslices the GIL, N replicas are N interpreters.
    """
    from repro.service import FleetSupervisor

    supervisor = FleetSupervisor(
        replicas=n_replicas,
        port=0,
        serve_argv=["--workers", str(len(bodies))],
        spawn_timeout=300.0,
    )
    supervisor.start()
    barrier = threading.Barrier(len(bodies))
    errors: list[BaseException] = []

    def call(body: dict) -> None:
        try:
            client = ServiceClient(supervisor.url, timeout=600.0)
            barrier.wait(timeout=60)
            record = client.solve(
                workflow=body["workflow"], gamma=body["gamma"],
                kind=body["kind"], solver=body["solver"],
            )
            assert record["cost"] >= 0
        except BaseException as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=call, args=(body,)) for body in bodies
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        seconds = time.perf_counter() - started
        assert not errors, errors
        metrics = ServiceClient(supervisor.url, timeout=60.0).metrics()
        assert metrics["fleet"]["in_rotation"] == n_replicas, metrics["fleet"]
        assert metrics["totals"]["coalesced"] == 0, metrics  # distinct traffic
    finally:
        supervisor.stop(drain_timeout=60)
    return seconds


def run_replica_reuse_check(tiny: bool) -> dict:
    """K identical requests through a 2-replica fleet on one store must
    derive **once** fleet-wide: the first replica computes and persists,
    every other request — whichever replica round-robin lands it on — is
    answered from the store's result tier (the replicas run with
    ``--result-cache-size 0``, so there is no in-memory cache to hide
    behind)."""
    from repro.service import FleetSupervisor

    payload = workflow_to_dict(_derivation_heavy_workflow(tiny))
    with tempfile.TemporaryDirectory(prefix="bench-fleet-store-") as store:
        supervisor = FleetSupervisor(
            replicas=2,
            store=Path(store),
            port=0,
            serve_argv=["--workers", "2", "--result-cache-size", "0"],
            spawn_timeout=300.0,
        )
        supervisor.start()
        try:
            client = ServiceClient(supervisor.url, timeout=300.0)
            records = [
                client.solve(
                    workflow=payload, gamma=2, kind="cardinality",
                    solver="auto",
                )
                for _ in range(K_CONCURRENT)
            ]
            metrics = client.metrics()
        finally:
            supervisor.stop(drain_timeout=60)
    costs = {record["cost"] for record in records}
    assert len(costs) == 1, costs
    outcome = {
        "requests": K_CONCURRENT,
        "replicas": 2,
        "store_result_hits": metrics["totals"]["result_hits"]["store"],
        "derivations": metrics["totals"]["cache"]["derivation_misses"],
        "served_from_store": sum(
            1 for record in records if record.get("from_store")
        ),
    }
    assert outcome["store_result_hits"] >= K_CONCURRENT - 1, outcome
    assert outcome["derivations"] == 1, outcome
    return outcome


def run_replica_phase(tiny: bool) -> dict:
    bodies = _scaling_bodies(tiny)
    fleet_seconds = {
        n_replicas: _timed_fleet_run(bodies, n_replicas)
        for n_replicas in REPLICA_COUNTS
    }
    cpus = os.cpu_count() or 1
    floor = REPLICAS_FLOOR_MULTICORE if cpus >= 4 else REPLICAS_FLOOR_FALLBACK
    best = fleet_seconds[REPLICA_COUNTS[-1]]
    return {
        "requests": len(bodies),
        "fleet_seconds": {str(n): s for n, s in fleet_seconds.items()},
        "speedup_4_replicas": (
            fleet_seconds[1] / best if best > 0 else float("inf")
        ),
        "cpus": cpus,
        "floor": floor,
        "store_reuse": run_replica_reuse_check(tiny),
    }


def run_benchmark(tiny: bool = False) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-service-") as workdir:
        throughput = run_throughput_phase(tiny, Path(workdir))
    coalescing = run_coalescing_phase(tiny)
    process_coalescing = run_process_coalescing_phase(tiny)
    jobs = run_jobs_phase(tiny)
    module_reuse = run_module_reuse_phase(tiny)
    scaling = run_scaling_phase(tiny)
    replicas = run_replica_phase(tiny)
    record = {
        "benchmark": "bench_service",
        "tiny": tiny,
        "speedup_floor": SPEEDUP_FLOOR,
        **{f"throughput_{key}": value for key, value in throughput.items()},
        "speedup_warm_server": throughput["speedup_warm_server"],
        "coalesce_requests": coalescing["requests"],
        "coalesced": coalescing["coalesced"],
        "coalesce_derivations": coalescing["derivations"],
        "coalesce_attempt": coalescing["attempt"],
        "coalesce_process": process_coalescing,
        **{f"jobs_{key}": value for key, value in jobs.items()},
        "module_reuse": module_reuse,
        "scaling": scaling,
        "replicas": replicas,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    assert record["coalesced"] == K_CONCURRENT - 1, record
    assert record["coalesce_derivations"] == 1, record
    assert record["jobs_submit_seconds"] < 0.1, record
    assert (
        module_reuse["rederived_modules"] == module_reuse["expected_rederived"]
    ), record
    assert module_reuse["reused_modules"] == module_reuse["expected_reused"], record
    write_record(record)
    return record


def _format_replicas(replicas: dict) -> str:
    curve = ", ".join(
        f"{n}r={replicas['fleet_seconds'][str(n)]:.3f}s"
        for n in REPLICA_COUNTS
    )
    reuse = replicas["store_reuse"]
    return (
        f"replicas: {replicas['requests']} distinct requests — {curve} "
        f"({replicas['speedup_4_replicas']:.2f}x at 4 replicas, "
        f"{replicas['cpus']} cpus, floor {replicas['floor']}x); "
        f"{reuse['requests']} identical requests across {reuse['replicas']} "
        f"replicas -> {reuse['derivations']} derivation "
        f"({reuse['store_result_hits']} store result hits)"
    )


def _format_scaling(scaling: dict) -> str:
    curve = ", ".join(
        f"{workers}w={scaling['process_seconds'][str(workers)]:.3f}s"
        for workers in SCALING_WORKER_COUNTS
    )
    return (
        f"scaling: {scaling['requests']} distinct requests — threads "
        f"{scaling['thread_seconds']:.3f}s vs processes {curve} "
        f"({scaling['speedup_4_workers']:.2f}x at 4 workers, "
        f"{scaling['cpus']} cpus, floor {scaling['floor']}x)"
    )


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points (the benchmark harness)
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.experiment("service")
    def test_bench_service_warm_server_speedup(report_sink):
        """A warm solve server beats sequential cold CLI invocations >= 100x."""
        from repro.analysis import format_table

        record = run_benchmark(tiny=False)
        report_sink.append(
            (
                "Solve service: sequential cold CLI processes vs one warm "
                f"server (record: {RECORD_PATH.name})",
                format_table(
                    ["path", "seconds total", "speedup"],
                    [
                        ["cold CLI x" + str(record["throughput_requests"]),
                         f"{record['throughput_cold_cli_seconds_total']:.3f}", "1.0x"],
                        ["warm server x" + str(record["throughput_requests"]),
                         f"{record['throughput_warm_server_seconds_total']:.3f}",
                         f"{record['speedup_warm_server']:.1f}x"],
                    ],
                ),
            )
        )
        assert record["speedup_warm_server"] >= SPEEDUP_FLOOR, (
            f"warm-server speedup {record['speedup_warm_server']:.2f}x "
            f"is below the {SPEEDUP_FLOOR}x floor"
        )
        assert record["coalesced"] == K_CONCURRENT - 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    if "--jobs-only" in argv:
        # Just the async-job phase (no record written): a fast smoke for
        # CI and local iteration on the job subsystem.
        jobs = run_jobs_phase(tiny)
        print(
            f"async job: handle in {jobs['submit_seconds'] * 1e3:.1f} ms, "
            f"{jobs['cells']} cells in {jobs['wall_seconds']:.3f}s "
            f"({jobs['cells_per_second']:.1f} cells/s)"
        )
        return 0 if jobs["submit_seconds"] < 0.1 else 1
    if "--replicas-only" in argv:
        # Just the fleet phase (no record written): local iteration on the
        # replica front and supervisor.
        replicas = run_replica_phase(tiny)
        print(_format_replicas(replicas))
        return 0 if replicas["speedup_4_replicas"] >= replicas["floor"] else 1
    if "--scaling-only" in argv:
        # Just the execution-tier scaling curve (no record written): local
        # iteration on the process tier.
        scaling = run_scaling_phase(tiny)
        print(_format_scaling(scaling))
        return 0 if scaling["speedup_4_workers"] >= scaling["floor"] else 1
    record = run_benchmark(tiny=tiny)
    print(
        f"cold CLI: {record['throughput_cold_cli_seconds_total']:.3f}s for "
        f"{record['throughput_requests']} sequential one-shot solves"
    )
    print(
        f"warm server: {record['throughput_warm_server_seconds_total']:.3f}s for "
        f"{record['throughput_requests']} requests "
        f"({record['speedup_warm_server']:.1f}x)"
    )
    print(
        f"coalescing: {record['coalesce_requests']} identical concurrent requests "
        f"-> {record['coalesce_derivations']} derivation "
        f"({record['coalesced']} coalesced)"
    )
    print(
        f"async job: handle in {record['jobs_submit_seconds'] * 1e3:.1f} ms, "
        f"{record['jobs_cells']} cells in {record['jobs_wall_seconds']:.3f}s "
        f"({record['jobs_cells_per_second']:.1f} cells/s)"
    )
    print(
        f"module reuse: {record['module_reuse']['reused_modules']} reused / "
        f"{record['module_reuse']['rederived_modules']} rederived across an edit"
    )
    print(_format_scaling(record["scaling"]))
    print(_format_replicas(record["replicas"]))
    print(f"record written to {RECORD_PATH}")
    if not tiny and record["speedup_warm_server"] < SPEEDUP_FLOOR:
        print(f"FAIL: warm-server speedup below {SPEEDUP_FLOOR}x floor")
        return 1
    if record["scaling"]["speedup_4_workers"] < record["scaling"]["floor"]:
        print(
            "FAIL: 4-worker process tier below the "
            f"{record['scaling']['floor']}x scaling floor"
        )
        return 1
    if record["replicas"]["speedup_4_replicas"] < record["replicas"]["floor"]:
        print(
            "FAIL: 4-replica fleet below the "
            f"{record['replicas']['floor']}x replica scaling floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
