"""The untraced workloads: end-to-end metrics as a user of the program sees them."""

from __future__ import annotations

import resource
import shutil
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine import run_sweep
from repro.service import ServiceClient, ServiceClientError

from . import gen
from .check import matches, reference_answers, sweep_mismatches
from .procs import ServerProcess
from .stats import MIN_TAIL, median, percentile, tail_count

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
SWEEP_JOBS = 2
#: Warm passes per cold pass in one sweep iteration: with 4, a fifth of
#: the cells are cold, so the cells' p90 is the median cold pass.
SWEEP_WARM_PASSES = 4


@dataclass
class Outcome:
    """What one run measured: metrics, answer counts, report lines."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: list[str] = field(default_factory=list)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def note(self, line: str) -> None:
        self.report.append(line)


def _latency_metrics(outcome: Outcome, latencies: list[float], label: str) -> None:
    """p50 and p90 in ms, with the sample counts behind them."""
    beyond = tail_count(latencies, 90)
    if beyond < MIN_TAIL:
        raise RuntimeError(
            f"only {beyond} of {len(latencies)} {label} samples lie beyond p90; "
            f"need {MIN_TAIL} (run longer)"
        )
    outcome.metrics["latency_p50_ms"] = (percentile(latencies, 50) * 1e3, "ms")
    outcome.metrics["latency_p90_ms"] = (percentile(latencies, 90) * 1e3, "ms")
    outcome.note(f"latency samples: {len(latencies)} {label}, {beyond} beyond p90")


def solve_over_http(client: ServiceClient, request: gen.Request) -> dict | None:
    """The solve record, or ``None`` when the request failed or was refused."""
    try:
        return client.solve(
            workflow=request.payload,
            gamma=request.gamma,
            kind=request.kind,
            solver=request.solver,
            seed=request.seed,
        )
    except ServiceClientError:
        return None


def answered(client: ServiceClient, request: gen.Request, answers: dict) -> bool:
    """Send one request; did the right answer come back?"""
    record = solve_over_http(client, request)
    return record is not None and matches(record, answers[request.key])


def run_lanes(target: Callable[[int], None], lanes: int) -> None:
    """Run ``target(lane)`` on ``lanes`` threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(lane,)) for lane in range(lanes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _serve_setup(
    stack: ExitStack,
    scratch: Path,
    warm: list[gen.Request],
    answers: dict,
    outcome: Outcome,
) -> ServerProcess:
    """Spawn ``repro serve`` on a fresh store until healthy, then solve the
    warm-up requests once.  Repeated; the last server is kept running."""
    times = []
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            outcome.count(server.stop() == 0)
        started = time.perf_counter()
        server = stack.enter_context(
            ServerProcess(
                "serve",
                ["--workers", "2", "--store", str(scratch / f"store-{attempt}")],
                scratch,
                f"serve-{attempt}",
            )
        )
        results: list[bool] = []

        def warm_lane(lane: int) -> None:
            client = ServiceClient(server.url)
            for request in warm[lane::2]:
                results.append(answered(client, request, answers))
            client.close()

        run_lanes(warm_lane, 2)
        times.append(time.perf_counter() - started)
        for ok in results:
            outcome.count(ok)
    outcome.metrics["setup_s"] = (median(times), "s")
    outcome.note(f"setup repeats: {len(times)}, each {['%.3f' % t for t in times]} s")
    return server


def _finish_serve(
    outcome: Outcome,
    server: ServerProcess,
    results: list[tuple[bool, float]],
    elapsed: float,
) -> None:
    """Count the answers, derive the metrics, and drain the server."""
    for ok, _ in results:
        outcome.count(ok)
    # A failed request misses every latency limit: only answers are timed.
    latencies = [latency for ok, latency in results if ok]
    within = sum(1 for latency in latencies if latency <= gen.LATENCY_LIMIT_S)
    outcome.metrics["throughput_rps"] = (len(latencies) / elapsed, "1/s")
    _latency_metrics(outcome, latencies, "requests")
    outcome.metrics["peak_rss_mib"] = (server.peak_rss_mib(), "MiB")
    outcome.count(server.stop() == 0)  # a drain that fails is an error too
    outcome.note(
        f"goodput_rps: {within / elapsed:.4f} 1/s "
        f"({within} of {len(results)} answered within "
        f"{gen.LATENCY_LIMIT_S * 1e3:.0f} ms)"
    )


def hot_closed(seed: int, seconds: float, scratch: Path) -> Outcome:
    """Closed loop: 2 keep-alive clients, Zipf picks, every answer cached."""
    outcome = Outcome()
    inputs = gen.hot_inputs(seed)
    answers = reference_answers(inputs.catalogue)
    with ExitStack() as stack:
        server = _serve_setup(stack, scratch, inputs.catalogue, answers, outcome)
        results: list[tuple[bool, float]] = []
        start = time.perf_counter()
        deadline = start + seconds
        done: list[float] = []

        def client_loop(stream: int) -> None:
            client = ServiceClient(server.url)
            client.version()  # negotiate the API base outside the timing
            for index in inputs.picker(seed, stream):
                sent = time.perf_counter()
                if sent >= deadline:
                    break
                ok = answered(client, inputs.catalogue[index], answers)
                results.append((ok, time.perf_counter() - sent))
            done.append(time.perf_counter())
            client.close()

        run_lanes(client_loop, 2)
        _finish_serve(outcome, server, results, max(done) - start)
    return outcome


def sweep_batch(seed: int, seconds: float, scratch: Path) -> Outcome:
    """Batch grid through ``run_sweep``: cold pass, then warm passes."""
    outcome = Outcome()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # Set-up: build the grid's workflows and serialize them into a spec.
        started = time.perf_counter()
        spec = gen.sweep_inputs(seed).spec()
        setup_times.append(time.perf_counter() - started)
    outcome.metrics["setup_s"] = (median(setup_times), "s")
    n_cells = len(spec.cells())

    reference: list[dict] | None = None
    cold_times: list[float] = []
    warm_times: list[float] = []
    warm_hits: list[int] = []
    started = time.perf_counter()
    iteration = 0
    elapsed = 0.0
    # Start another iteration only if it is expected to end in time.
    while iteration == 0 or elapsed + elapsed / iteration <= seconds:
        store = scratch / f"sweep-store-{iteration}"
        iteration += 1
        cold = run_sweep(spec, n_jobs=SWEEP_JOBS, store=store)
        cold_times.append(cold.seconds)
        if reference is None:
            reference = cold.records
        # Every cold pass must reproduce the first; every warm pass the cold.
        bad = sweep_mismatches(reference, cold.records)
        for _ in range(SWEEP_WARM_PASSES):
            warm = run_sweep(spec, n_jobs=SWEEP_JOBS, store=store)
            warm_times.append(warm.seconds)
            warm_hits.append(warm.result_store_hits)
            bad += sweep_mismatches(cold.records, warm.records)
        outcome.attempted += n_cells * (1 + SWEEP_WARM_PASSES)
        outcome.failed += bad
        shutil.rmtree(store, ignore_errors=True)
        elapsed = time.perf_counter() - started

    # A cell's latency is the wall time of the pass that answered it.
    latencies = [t for t in cold_times + warm_times for _ in range(n_cells)]
    total = sum(cold_times) + sum(warm_times)
    outcome.metrics["throughput_rps"] = (len(latencies) / total, "1/s")
    _latency_metrics(outcome, latencies, "cells")
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome.metrics["peak_rss_mib"] = (peak_kib / 1024.0, "MiB")
    outcome.note(
        f"passes: {len(cold_times)} cold, {len(warm_times)} warm, "
        f"{n_cells} cells each"
    )
    outcome.note(
        f"cold_cells_per_s: {n_cells / median(cold_times):.4f} 1/s "
        f"(median of {len(cold_times)} cold passes)"
    )
    outcome.note(
        f"warm_cells_per_s: {n_cells / median(warm_times):.4f} 1/s "
        f"(median of {len(warm_times)} warm passes; "
        f"result-store hits per warm pass {sorted(set(warm_hits))} of {n_cells})"
    )
    outcome.note(
        f"setup repeats: {len(setup_times)} grid builds, "
        f"each {['%.3f' % t for t in setup_times]} s"
    )
    return outcome
