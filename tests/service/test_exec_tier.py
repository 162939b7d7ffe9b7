"""Tests for the multi-core execution tier (``exec_mode="processes"``).

Determinism notes: the tier's ``pause()`` hook holds queued tasks
undispatched, so followers can attach to a leader's coalescer entry with
certainty (``RequestCoalescer.await_waiters`` sequences the attachment —
no sleeps, no timing games).  Worker death is exercised through
:data:`~repro.service.exec_tier.CRASH_LABEL`, a request label that makes
the assigned worker ``os._exit`` before solving: labels ride the wire but
are excluded from the coalescing key, so a poisoned request still
coalesces — exactly the "leader's computation is lost mid-flight"
scenario the robustness fix must survive.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    ProcessExecTier,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    ServiceServer,
    SolveService,
    WorkerError,
    parse_solve_payload,
)
from repro.service.exec_tier import CRASH_LABEL


def _process_service(**overrides) -> SolveService:
    defaults = dict(
        workers=2,
        exec_mode="processes",
        exec_workers=2,
        default_timeout=60,
        maintenance_interval=None,
    )
    defaults.update(overrides)
    return SolveService(**defaults)


class TestCoalescingOnProcessTier:
    K = 4

    def test_k_identical_requests_run_one_derivation_on_one_worker(
        self, figure1_payload
    ):
        service = _process_service()
        try:
            assert service.exec_tier.wait_ready(60)
            body = {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            key = parse_solve_payload(dict(body), service.instances).key

            # Hold dispatch so every request attaches before the worker runs.
            service.exec_tier.pause()
            results: list[dict | None] = [None] * self.K
            errors: list[BaseException] = []

            def call(slot: int) -> None:
                try:
                    results[slot] = service.solve_payload(dict(body))
                except BaseException as exc:  # noqa: BLE001 - via assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(self.K)
            ]
            for thread in threads:
                thread.start()
            assert service.coalescer.await_waiters(key, self.K, timeout=30)
            service.exec_tier.resume()
            for thread in threads:
                thread.join(timeout=60)

            assert not errors
            costs = {record["cost"] for record in results}  # type: ignore[index]
            assert len(costs) == 1
            assert sum(record["coalesced"] for record in results) == self.K - 1

            metrics = service.metrics()
            assert metrics["coalesced"] == self.K - 1
            assert metrics["leaders"] == 1
            # The derivation happened exactly once — in a worker process;
            # its cache delta is merged into the shared counters.
            assert metrics["cache"]["derivation_misses"] == 1
            assert metrics["exec"]["mode"] == "processes"
            assert metrics["exec"]["dispatched"] == 1
            assert metrics["exec"]["completed"] == 1
            assert metrics["exec"]["inline_fallbacks"] == 0
            assert results[0]["from_store"] is False  # no store attached
        finally:
            assert service.drain(timeout=30)

    def test_distinct_requests_fan_out_to_distinct_workers(self, figure1_payload):
        service = _process_service()
        try:
            assert service.exec_tier.wait_ready(60)
            tier = service.exec_tier
            jobs = [
                parse_solve_payload(
                    {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                     "seed": seed},
                    service.instances,
                )
                for seed in (1, 2)
            ]
            # Queue both while paused; one resume assigns both in a single
            # pass, so each lands on its own worker — true parallelism.
            tier.pause()
            tasks = [tier.submit(job) for job in jobs]
            assert tier.metrics()["queued"] == 2
            tier.resume()
            records = [tier.wait(task, timeout=60) for task in tasks]
            assert {task.worker for task in tasks} == {0, 1}
            assert all(record["cost"] >= 0 for record in records)
            assert tier.metrics()["dispatched"] == 2
            assert tier.metrics()["completed"] == 2
        finally:
            assert service.drain(timeout=30)


class TestDrainWithProcessTier:
    def test_drain_waits_for_inflight_tier_work(self, figure1_payload):
        service = _process_service(workers=1, exec_workers=1)
        try:
            assert service.exec_tier.wait_ready(60)
            body = {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            key = parse_solve_payload(dict(body), service.instances).key
            outcome: dict = {}

            service.exec_tier.pause()  # the leader blocks undispatched

            def call() -> None:
                outcome["record"] = service.solve_payload(dict(body))

            solver_thread = threading.Thread(target=call)
            solver_thread.start()
            assert service.coalescer.await_waiters(key, 1, timeout=30)

            drained = threading.Event()
            drain_thread = threading.Thread(
                target=lambda: (service.drain(timeout=60), drained.set())
            )
            drain_thread.start()
            assert service.drain_started.wait(30)

            assert not drained.is_set()
            with pytest.raises(ServiceError) as excinfo:
                service.solve_payload(
                    {"workflow": figure1_payload, "gamma": 3, "kind": "set"}
                )
            assert excinfo.value.status == 503

            service.exec_tier.resume()
            solver_thread.join(timeout=60)
            drain_thread.join(timeout=60)
            assert drained.is_set()
            assert outcome["record"]["cost"] > 0  # in-flight work kept
            assert service.in_flight == 0
        finally:
            service.drain(timeout=30)


class TestWorkerCrashRecovery:
    def test_crash_fails_only_attached_requests_and_respawns(
        self, figure1_payload
    ):
        K = 3
        service = _process_service(workers=2, exec_workers=1)
        try:
            assert service.exec_tier.wait_ready(60)
            poisoned = {
                "workflow": figure1_payload, "gamma": 2, "kind": "set",
                "label": CRASH_LABEL,
            }
            key = parse_solve_payload(dict(poisoned), service.instances).key

            service.exec_tier.pause()
            errors: list[BaseException] = []
            results: list[dict] = []

            def call() -> None:
                try:
                    results.append(service.solve_payload(dict(poisoned)))
                except BaseException as exc:  # noqa: BLE001 - via assert
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(K)]
            for thread in threads:
                thread.start()
            assert service.coalescer.await_waiters(key, K, timeout=30)
            service.exec_tier.resume()
            for thread in threads:
                thread.join(timeout=60)

            # Every attached request failed with the 500-mapped crash error;
            # nothing hung and nothing succeeded.
            assert not results
            assert len(errors) == K
            assert all(isinstance(exc, WorkerError) for exc in errors)
            assert all(exc.status == 500 for exc in errors)
            assert all("died mid-solve" in str(exc) for exc in errors)
            # The single-flight entry was resolved, not wedged.
            assert service.coalescer.in_flight() == 0

            # The worker respawned; the tier is healthy and still solves.
            assert service.exec_tier.wait_ready(60)
            assert service.exec_tier.worker_restarts == 1
            assert service.exec_tier.healthy()
            record = service.solve_payload(
                {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            )
            assert record["cost"] > 0
            metrics = service.metrics()
            assert metrics["exec"]["worker_restarts"] == 1
            assert metrics["exec"]["failed"] == 1
            assert metrics["exec"]["healthy"] is True
        finally:
            assert service.drain(timeout=30)

    def test_unrecoverable_pool_is_unhealthy_and_falls_back_inline(
        self, figure1_payload
    ):
        service = _process_service(workers=2, exec_workers=1)
        server = ServiceServer(service, port=0).start()
        try:
            assert service.exec_tier.wait_ready(60)
            service.exec_tier.max_restarts = 0  # first death is terminal
            with pytest.raises(WorkerError):
                service.solve_payload(
                    {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                     "label": CRASH_LABEL}
                )
            # await the death bookkeeping (wait_ready returns False on a
            # dead pool without waiting out its timeout).
            assert service.exec_tier.wait_ready(30) is False
            assert service.exec_tier.healthy() is False

            health = service.healthz()
            assert health["status"] == "unhealthy"
            assert health["healthy"] is False
            client = ServiceClient(server.url, timeout=30)
            with pytest.raises(ServiceClientError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.payload["status"] == "unhealthy"

            # Requests still answer — inline, on the pool thread.
            record = service.solve_payload(
                {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            )
            assert record["cost"] > 0
            metrics = service.metrics()
            assert metrics["exec"]["inline_fallbacks"] == 1
            assert metrics["exec"]["alive"] == 0
            assert metrics["exec"]["healthy"] is False
        finally:
            server.stop(drain_timeout=30)


class TestStoreBackedProcessTier:
    def test_workers_reuse_results_persisted_by_another_service(
        self, figure1_payload, tmp_path
    ):
        store = str(tmp_path / "store")
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
        first = SolveService(store=store, workers=1, default_timeout=60,
                             maintenance_interval=None)
        try:
            fresh = first.solve_payload(dict(body))
            assert fresh["from_store"] is False
        finally:
            assert first.drain(timeout=30)

        second = _process_service(store=store)
        try:
            assert second.exec_tier.wait_ready(60)
            reused = second.solve_payload(dict(body))
            assert reused["from_store"] is True
            assert reused["cost"] == fresh["cost"]
            assert second.metrics()["result_hits"]["store"] == 1
        finally:
            assert second.drain(timeout=30)


class TestWorkerRunner:
    def test_worker_planner_table_is_bounded(self):
        """A worker's runner evicts planners past the service's default bound."""
        from repro.core import Workflow
        from repro.engine.executor import PLANNER_LIMIT, SolveRunner
        from repro.workloads import random_total_module, workflow_to_dict

        # Built, and asked, the way a worker process builds and asks its
        # runner (no store directory here).
        runner = SolveRunner(None, reuse_results=True)
        for index in range(PLANNER_LIMIT + 8):
            module = random_total_module(index, 2, 1, f"m{index}", f"a{index}_")
            workflow = Workflow([module], name=f"w{index}")
            body = {"workflow": workflow_to_dict(workflow), "gamma": 2}
            parse_solve_payload(body, runner).run(runner)
        assert len(runner._planners) == PLANNER_LIMIT


class TestConstruction:
    def test_exec_workers_requires_process_mode(self):
        with pytest.raises(ValueError, match="exec_workers requires"):
            SolveService(exec_workers=2)

    def test_registry_cannot_cross_the_process_boundary(self, blocker):
        with pytest.raises(ValueError, match="registry"):
            SolveService(exec_mode="processes", registry=blocker.registry)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"exec_mode": "fibers"},
            {"exec_mode": "processes", "exec_workers": 0},
        ],
    )
    def test_nonsensical_exec_arguments_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveService(**kwargs)

    def test_tier_rejects_nonsensical_arguments(self):
        with pytest.raises(ValueError):
            ProcessExecTier(workers=0)
        with pytest.raises(ValueError):
            ProcessExecTier(workers=1, max_restarts=-1)

    def test_thread_mode_metrics_report_a_static_exec_block(
        self, figure1_payload
    ):
        service = SolveService(workers=2, default_timeout=30)
        try:
            service.solve_payload(
                {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            )
            block = service.metrics()["exec"]
            assert block["mode"] == "threads"
            assert block["workers"] == 2
            assert block["dispatched"] == 0
            assert block["inline_fallbacks"] == 0
            assert block["worker_restarts"] == 0
            assert block["healthy"] is True
            assert service.healthz()["status"] == "ok"
        finally:
            assert service.drain(timeout=30)


class TestWireCodec:
    def test_to_wire_round_trips_the_coalescing_key(self, figure1_payload):
        from repro.service.jobs import InstanceCache

        instances = InstanceCache()
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set",
            "solver": "auto", "seed": 7,
            "costs": {"m1_a": 2.0},
        }
        job = parse_solve_payload(dict(body), instances)
        reparsed = parse_solve_payload(job.to_wire(), InstanceCache())
        assert reparsed.key == job.key
        assert reparsed.label == job.label

    def test_to_wire_requires_the_raw_payload(self, figure1_payload):
        from dataclasses import replace

        from repro.service.jobs import InstanceCache

        job = parse_solve_payload(
            {"workflow": figure1_payload, "gamma": 2}, InstanceCache()
        )
        with pytest.raises(ValueError, match="raw payload"):
            replace(job, payload=None).to_wire()
