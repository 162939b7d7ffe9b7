"""The traced run: one fixed sample of a workload replayed hop by hop.

Hops, innermost first, each a span per request:

1. ``kernel``          compile + derive every private module (no cache)
2. ``planner``         ``Planner.solve`` on one shared cache, no store
3. ``planner_store``   the same on a fresh cache with a fresh store
4. ``service``         in-process ``SolveService``: parse + submit
5. ``serve``           HTTP ``repro serve`` (thread tier)
6. ``serve_processes`` HTTP ``repro serve --exec processes --exec-workers 2``
7. ``fleet``           HTTP ``repro fleet --replicas 2``

plus the sweep executor over the sample's grid (in-process, so its store
calls are spans too).  Every hop starts from the same state: the workload's
warm-up requests are solved first, untimed.  Spans are recorded by the
benchmark around the calls it makes into each layer, kept in memory, and
written to ``.perfbench/trace-<workload>-<seed>.json`` at the end.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path

from repro import Planner
from repro.core.requirements import derive_module_requirement
from repro.engine import (
    DerivationCache,
    DerivationStore,
    SweepInstance,
    SweepSpec,
    run_sweep,
)
from repro.kernel import clear_compile_cache, compile_module
from repro.service import ServiceClient, SolveService, parse_solve_payload
from repro.workloads import module_fingerprint, workflow_from_dict

from . import gen
from .check import matches, reference_answers, result_record, sweep_mismatches
from .procs import SCRATCH, ServerProcess, environment
from .stats import MIN_TAIL, Tracer, median, percentile, self_times, tail_count
from .workloads import Outcome, solve_over_http

HOT_SAMPLE = 100
HEALTHZ_PROBES = 40
CHAIN = (
    "kernel",
    "planner",
    "planner_store",
    "service",
    "serve",
    "serve_processes",
    "fleet",
)


@dataclass
class Sample:
    warm: list[gen.Request]  # solved untimed before each hop
    timed: list[gen.Request]

    def tagged(self, warm: bool = False) -> list[tuple[str, gen.Request]]:
        """Requests with ids that name one request across every hop:
        ``t<i>`` for the i-th timed request, ``w<i>`` for warm-ups."""
        pairs = [(f"w{i}", r) for i, r in enumerate(self.warm)] if warm else []
        return pairs + [(f"t{i}", r) for i, r in enumerate(self.timed)]


def _sample(workload: str, seed: int) -> Sample:
    if workload == "hot_closed":
        inputs = gen.hot_inputs(seed)
        timed = gen.hot_sample(seed, inputs, HOT_SAMPLE)
        warm = list({request.key: request for request in timed}.values())
        return Sample(warm, timed)
    return Sample([], gen.sweep_sample(gen.sweep_inputs(seed)))


def _traced_store(store: DerivationStore, tracer: Tracer) -> DerivationStore:
    """Wrap the store's public load/save calls in spans (instance-level)."""
    for name in dir(store):
        if name.startswith(("load_", "save_")):
            method = getattr(store, name)

            @functools.wraps(method)
            def traced(*args, _method=method, _span=f"store.{name}", **kwargs):
                with tracer.span(_span):
                    return _method(*args, **kwargs)

            setattr(store, name, traced)
    return store


class Ledger:
    """The traced run of one workload: hops, their spans and metrics."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.sample = _sample(workload, seed)
        self.answers = reference_answers(self.sample.warm + self.sample.timed)
        self.tracer = Tracer()
        self.outcome = Outcome()
        self.metrics = self.outcome.metrics
        self.lag: list[float] = []

    # -- helpers -----------------------------------------------------------------
    def _check(self, record: dict | None, request: gen.Request) -> None:
        self.outcome.count(matches(record, self.answers[request.key]))

    def _ms(self, name: str, timed: bool = False) -> list[float]:
        """Durations in ms of the spans called ``name`` (with ``timed``,
        only those of the sample's timed requests)."""
        return [
            span.duration * 1e3
            for span in self.tracer.named(name)
            if not timed or (span.request_id or "").startswith("t")
        ]

    def _store_ms(self, hop: str, prefix: str) -> float:
        """Median per-request self time in store calls starting ``prefix``,
        over the requests of ``hop`` that made any."""
        spans = self.tracer.spans
        own = self_times(spans)
        by_id = {span.span_id: span for span in spans}
        per_request: dict[int, float] = {}
        for span in spans:
            if not span.name.startswith(f"store.{prefix}"):
                continue
            root = span
            while root.parent is not None:
                root = by_id[root.parent]
            if root.name == hop:
                per_request[root.span_id] = (
                    per_request.get(root.span_id, 0.0) + own[span.span_id]
                )
        return median(list(per_request.values())) * 1e3 if per_request else 0.0

    # -- hops --------------------------------------------------------------------
    def kernel(self) -> None:
        stats = {"batched_masks": 0, "batched_passes": 0, "scalar_masks": 0}
        clear_compile_cache()
        for rid, request in self.sample.tagged():
            workflow = workflow_from_dict(request.payload)  # fresh: no memo hits
            with self.tracer.span("kernel", rid):
                for module in workflow.private_modules:
                    with self.tracer.span("kernel.module"):
                        compiled = compile_module(module)
                        derive_module_requirement(
                            module, request.gamma, kind=request.kind, compiled=compiled
                        )
                    for counter in stats:
                        stats[counter] += compiled.sweep_stats[counter]
        module_ms = self._ms("kernel.module")
        self.metrics["kernel.derive_ms"] = (median(module_ms), "ms")
        self.outcome.note(
            f"kernel: {len(module_ms)} module derivations (compile + derive); "
            f"sweep counters {stats}"
        )

    def _planner_hop(self, hop: str, cache: DerivationCache) -> None:
        # Like the service: one instance per distinct payload, one planner
        # per (instance, Γ, kind); built fresh so no other hop's compile
        # memos are reused.
        clear_compile_cache()
        instances = {
            request.workflow.name: workflow_from_dict(request.payload)
            for request in self.sample.warm + self.sample.timed
        }
        planners: dict[tuple, Planner] = {}

        def solve(request: gen.Request):
            key = (request.workflow.name, request.gamma, request.kind)
            if key not in planners:
                planners[key] = Planner(
                    instances[key[0]], request.gamma, kind=request.kind, cache=cache
                )
            return planners[key].solve(request.solver, seed=request.seed)

        for rid, request in self.sample.tagged(warm=True):
            with self.tracer.span(hop, rid):
                result = solve(request)
            self._check(result_record(result), request)

    def planner(self) -> None:
        cache = DerivationCache()
        self._planner_hop("planner", cache)
        self.metrics["engine.planner.solve_ms"] = (self.hop_p50("planner"), "ms")
        stats = cache.stats()
        for counter in ("batched_masks", "batched_passes", "scalar_masks"):
            self.metrics[f"kernel.{counter}"] = (getattr(stats, counter), "count")
        reused, rederived = stats.reused_modules, stats.rederived_modules
        base = reused + rederived
        self.metrics["engine.cache.rederived_modules"] = (rederived, "count")
        self.metrics["engine.cache.reused_modules"] = (reused, "count")
        self.metrics["engine.cache.module_reuse_ratio"] = (
            reused / base if base else 0.0, "ratio"
        )
        self.outcome.note(
            f"engine.cache.module_reuse_ratio base: {base} module lookups"
        )

    def planner_store(self) -> None:
        root = self.scratch / "ledger-planner-store"
        store = _traced_store(DerivationStore(root), self.tracer)
        self._planner_hop("planner_store", DerivationCache(store=store))
        # A second cache on the same store: what another process reads.
        self._planner_hop("planner_store_reread", DerivationCache(store=store))
        stats = store.stats()
        self.metrics["engine.store.write_ms"] = (
            self._store_ms("planner_store", "save_"), "ms"
        )
        self.metrics["engine.store.read_ms"] = (
            self._store_ms("planner_store_reread", "load_"), "ms"
        )
        self.metrics["engine.store.hits"] = (stats["hits"], "count")
        self.metrics["engine.store.writes"] = (stats["writes"], "count")
        self.metrics["engine.store.disk_bytes"] = (
            store.disk_stats()["bytes"], "bytes"
        )

    def service(self) -> None:
        service = SolveService(
            store=str(self.scratch / "ledger-service-store"), workers=2
        )
        try:
            for request in self.sample.warm:
                self._check(service.solve_payload(request.body()), request)
            before = service.result_hits_memory + service.result_hits_store
            for rid, request in self.sample.tagged():
                with self.tracer.span("service", rid):
                    with self.tracer.span("service.parse"):
                        job = parse_solve_payload(request.body(), service.instances)
                    with self.tracer.span("service.submit"):
                        record = service.submit(job)
                self._check(record, request)
            hits = service.result_hits_memory + service.result_hits_store - before
        finally:
            service.drain(timeout=60)
        timed = len(self.sample.timed)
        self.metrics["service.parse_ms"] = (median(self._ms("service.parse")), "ms")
        self.metrics["service.submit_ms"] = (self.hop_p50("service"), "ms")
        self.metrics["service.result_hit_ratio"] = (hits / timed, "ratio")
        self.outcome.note(f"service.result_hit_ratio base: {timed} requests")

    def _http_hop(self, hop: str, command: str, args: list[str]) -> dict:
        with ServerProcess(command, args, self.scratch, hop) as server:
            client = ServiceClient(server.url)
            for request in self.sample.warm:
                self._check(solve_over_http(client, request), request)
            client.close()
            self._closed_loop(hop, server.url)
            client = ServiceClient(server.url)
            if hop == "serve":
                client.version()
                for probe in range(HEALTHZ_PROBES):
                    with self.tracer.span("serve.healthz", f"healthz-{probe}"):
                        client.healthz()
            metrics = client.metrics()
            client.close()
            self.outcome.count(server.stop() == 0)
        return metrics

    def _closed_loop(self, hop: str, url: str) -> None:
        """Send the timed sample back to back on one keep-alive client; each
        request is due when the previous answer arrives."""
        client = ServiceClient(url)
        client.version()
        due = time.perf_counter()
        for rid, request in self.sample.tagged():
            self.lag.append(time.perf_counter() - due)
            with self.tracer.span(hop, rid):
                record = solve_over_http(client, request)
            due = time.perf_counter()
            self._check(record, request)
        client.close()

    def http(self) -> None:
        self._http_hop(
            "serve", "serve",
            ["--workers", "2", "--store", str(self.scratch / "ledger-serve")],
        )
        self._http_hop(
            "serve_processes", "serve",
            [
                "--workers", "2", "--exec", "processes", "--exec-workers", "2",
                "--store", str(self.scratch / "ledger-processes"),
            ],
        )
        fleet = self._http_hop(
            "fleet", "fleet",
            [
                "--replicas", "2", "--workers", "2",
                "--store", str(self.scratch / "ledger-fleet"),
            ],
        )["fleet"]
        serve_p50 = self.hop_p50("serve")
        self.metrics["service.server.http_marginal_ms"] = (
            serve_p50 - self.metrics["service.submit_ms"][0], "ms"
        )
        self.metrics["service.server.healthz_ms"] = (
            median(self._ms("serve.healthz")), "ms"
        )
        self.metrics["service.client.schedule_lag_ms"] = (
            median(self.lag) * 1e3, "ms"
        )
        self.metrics["service.exec_tier.marginal_ms"] = (
            self.hop_p50("serve_processes") - serve_p50, "ms"
        )
        self.metrics["service.fleet.marginal_ms"] = (
            self.hop_p50("fleet") - serve_p50, "ms"
        )
        self.metrics["service.fleet.proxied"] = (
            sum(fleet["proxied"].values()), "count"
        )
        self.metrics["service.fleet.failovers"] = (fleet["failovers"], "count")

    def executor(self) -> None:
        """Cold then warm ``run_sweep`` in-process over the sample's grid
        (the full 256-cell grid for ``sweep_batch``)."""
        if self.workload == "sweep_batch":
            spec = gen.sweep_inputs(self.seed).spec()
        else:
            first = self.sample.timed[0]
            workflows = {r.workflow.name: r for r in self.sample.timed}.values()
            spec = SweepSpec(
                instances=tuple(
                    SweepInstance(r.workflow.name, "workflow", r.payload)
                    for r in workflows
                ),
                gammas=(first.gamma,),
                kinds=(first.kind,),
                solvers=(first.solver,),
                seeds=(first.seed,),
            )
        store = _traced_store(
            DerivationStore(self.scratch / "ledger-executor"), self.tracer
        )
        with self.tracer.span("executor.cold", "executor-cold"):
            cold = run_sweep(spec, n_jobs=1, store=store)
        with self.tracer.span("executor.warm", "executor-warm"):
            warm = run_sweep(spec, n_jobs=1, store=store)
        bad = sweep_mismatches(cold.records, warm.records)
        self.outcome.attempted += len(warm.records)
        self.outcome.failed += bad
        self.metrics["engine.executor.chunks"] = (_chunk_count(spec), "count")
        self.metrics["engine.executor.result_store_hits"] = (
            warm.result_store_hits, "count"
        )
        self.outcome.note(
            f"executor: {len(spec.cells())} cells, cold {cold.seconds:.3f} s, "
            f"warm {warm.seconds:.3f} s (n_jobs=1, traced store)"
        )

    # -- summary -----------------------------------------------------------------
    def hop_p50(self, hop: str) -> float:
        return median(self._ms(hop, timed=True))

    def summarize(self) -> None:
        previous = None
        for hop in CHAIN:
            values = self._ms(hop, timed=True)
            p50, p90 = percentile(values, 50), percentile(values, 90)
            self.metrics[f"hop.{hop}.p50_ms"] = (p50, "ms")
            self.metrics[f"hop.{hop}.p90_ms"] = (p90, "ms")
            reference = "serve" if hop in ("serve_processes", "fleet") else previous
            marginal = (
                f", marginal {p50 - self.hop_p50(reference):+.3f} ms vs {reference}"
                if reference else ""
            )
            beyond = tail_count(values, 90)
            support = "" if beyond >= MIN_TAIL else ", p90 indicative only"
            self.outcome.note(
                f"hop {hop}: p50 {p50:.3f} ms, p90 {p90:.3f} ms "
                f"(n={len(values)}, {beyond} beyond p90{support}){marginal}"
            )
            previous = hop
        self._overhead()
        share = self.metrics["service.server.http_marginal_ms"][0] / self.hop_p50("serve")
        self.outcome.note(f"accounting: http_marginal is {share:.1%} of serve p50")

    def _overhead(self) -> None:
        """Recorder cost per traced request: the price of one span times the
        spans a request opens on its way through the hops."""
        probe = Tracer()
        rounds = 2000
        started = time.perf_counter()
        for _ in range(rounds):
            with probe.span("probe", "probe"):
                pass
        per_span = (time.perf_counter() - started) / rounds
        traced = [s for s in self.tracer.spans if s.request_id is not None]
        requests = {s.request_id for s in traced}
        per_request = per_span * len(traced) / max(1, len(requests))
        self.metrics["trace.overhead_ms"] = (per_request * 1e3, "ms")
        self.outcome.note(
            f"tracing: {len(self.tracer.spans)} spans, "
            f"{per_span * 1e6:.2f} us per span"
        )

    def write(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        path = SCRATCH / f"trace-{self.workload}-{self.seed}.json"
        self.tracer.write(
            path,
            {
                "workload": self.workload,
                "seed": self.seed,
                "environment": environment(),
                "self_times": {
                    str(k): v for k, v in self_times(self.tracer.spans).items()
                },
            },
        )
        return path


def _chunk_count(spec: SweepSpec) -> int:
    """Dispatch units under the executor's grouping rule: instances joined
    into families by shared module content, times the grid's (Γ, kind)
    points."""
    parent: dict[str, str] = {}

    def find(label: str) -> str:
        while parent[label] != label:
            label = parent[label]
        return label

    owner: dict[str, str] = {}
    for instance in spec.instances:
        parent[instance.label] = instance.label
        for module in workflow_from_dict(instance.payload).modules:
            seen = owner.setdefault(module_fingerprint(module), instance.label)
            parent[find(instance.label)] = find(seen)
    families = {find(instance.label) for instance in spec.instances}
    return len(families) * len(spec.gammas) * len(spec.kinds)


def run(workload: str, seed: int, scratch: Path) -> Outcome:
    ledger = Ledger(workload, seed, scratch)
    ledger.kernel()
    ledger.planner()
    ledger.planner_store()
    ledger.service()
    ledger.http()
    ledger.executor()
    ledger.summarize()
    path = ledger.write()
    ledger.outcome.note(f"spans written to {path.relative_to(SCRATCH.parent)}")
    return ledger.outcome
