"""Tests for the async job subsystem and the maintenance scheduler.

Deterministic by construction, like the rest of the service tests:
blocking solvers gate on events, progress is sequenced through
``JobManager.await_progress`` (condition-based), and clocks are injected
(``expire(now=...)``) instead of slept on.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.engine.registry import default_registry
from repro.engine.store import DerivationStore
from repro.service import (
    JOB_STATES,
    TERMINAL_JOB_STATES,
    ServiceError,
    SolveService,
    parse_solve_payload,
)


def make_service(**kwargs) -> SolveService:
    """A service with background threads quiet unless a test opts in."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("default_timeout", 30)
    kwargs.setdefault("maintenance_interval", None)
    return SolveService(**kwargs)


def with_exact(blocker):
    """The blocker's registry plus the real ``exact`` solver.

    A fresh :class:`SolverRegistry` holds only ``blocker``; tests mixing
    blocking and instant cells in one grid need both.
    """
    spec = default_registry().get("exact")
    blocker.registry.register("exact", exact=True, summary=spec.summary)(spec.fn)
    return blocker.registry


class TestJobLifecycle:
    def test_hundred_cell_submit_returns_immediately_then_completes(
        self, figure1_payload
    ):
        """The acceptance bar: a 100-cell job hands back its id in <100 ms."""
        service = make_service()
        grid = {
            "workflows": [figure1_payload],
            "gammas": [2],
            "kinds": ["set"],
            "solvers": ["exact"],
            "seeds": list(range(100)),
        }
        started = time.perf_counter()
        handle = service.jobs.submit(grid)
        submit_seconds = time.perf_counter() - started
        assert submit_seconds < 0.1, f"submit took {submit_seconds * 1e3:.1f} ms"
        assert handle["cells"] == 100
        assert handle["state"] in JOB_STATES

        # Partial progress is observable and monotone while cells land.
        assert service.jobs.await_progress(handle["job"], 10, timeout=30)
        partial = service.jobs.status(handle["job"])
        landed = partial["completed"] + partial["failed"]
        assert 10 <= landed <= 100
        assert [r["index"] for r in partial["records"]] == list(range(landed))

        final = service.jobs.wait(handle["job"], timeout=30)
        assert final["state"] == "done"
        assert final["completed"] == 100 and final["failed"] == 0
        assert final["pending"] == 0 and final["dropped"] == 0
        assert [r["index"] for r in final["records"]] == list(range(100))
        assert final["completed"] >= landed  # progress never regressed
        assert all(r["cost"] == 3.0 for r in final["records"])
        assert service.drain(timeout=30)

    def test_partial_records_while_a_cell_blocks(self, blocker, figure1_payload):
        """Progress shows the finished prefix while later cells still run."""
        service = make_service(workers=1, registry=with_exact(blocker))
        handle = service.jobs.submit(
            {
                "workflows": [figure1_payload],
                "gammas": [2],
                "solvers": ["exact", "blocker"],
            }
        )
        # Cell 0 (exact) lands; cell 1 (blocker) starts and parks.
        assert service.jobs.await_progress(handle["job"], 1, timeout=30)
        assert blocker.started.wait(30)
        partial = service.jobs.status(handle["job"])
        assert partial["state"] == "running"
        assert partial["completed"] == 1 and partial["pending"] == 1
        assert len(partial["records"]) == 1
        assert partial["records"][0]["solver"] == "exact"

        blocker.release.set()
        final = service.jobs.wait(handle["job"], timeout=30)
        assert final["state"] == "done" and final["completed"] == 2
        assert service.drain(timeout=30)

    def test_error_cells_are_isolated_not_fatal(self, figure1_payload):
        service = make_service()
        handle = service.jobs.submit(
            {"workflows": [figure1_payload], "solvers": ["exact", "no-such-solver"]}
        )
        final = service.jobs.wait(handle["job"], timeout=30)
        assert final["state"] == "done"  # the job succeeded; one cell failed
        assert final["completed"] == 1 and final["failed"] == 1
        failed = [r for r in final["records"] if "error" in r]
        assert failed[0]["error_type"] == "SolverError"
        assert failed[0]["cost"] is None
        assert service.drain(timeout=30)

    def test_async_cells_share_the_result_cache_with_sync_traffic(
        self, figure1_payload
    ):
        service = make_service()
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact", "seed": 0}
        service.solve_payload(dict(body))
        handle = service.jobs.submit(
            {"workflows": [figure1_payload], "gammas": [2], "kinds": ["set"],
             "solvers": ["exact"], "seeds": [0]}
        )
        final = service.jobs.wait(handle["job"], timeout=30)
        assert final["completed"] == 1
        assert service.metrics()["result_hits"]["memory"] >= 1
        assert service.drain(timeout=30)

    def test_malformed_grid_fails_the_submit_not_the_job(self):
        service = make_service()
        with pytest.raises(ServiceError) as excinfo:
            service.jobs.submit({"workflows": "nope"})
        assert excinfo.value.status == 400
        assert service.jobs.metrics()["submitted"] == 0
        assert service.drain(timeout=30)


class TestCancellation:
    def test_cancel_drops_pending_cells_and_finishes_inflight(
        self, blocker, figure1_payload
    ):
        service = make_service(workers=1, registry=blocker.registry)
        handle = service.jobs.submit(
            {
                "workflows": [figure1_payload],
                "gammas": [2, 3, 4, 5, 6],
                "solvers": ["blocker"],
            }
        )
        assert blocker.started.wait(30)  # cell 0 is in flight (window = 1)
        ack = service.jobs.cancel(handle["job"])
        assert ack["cancel_requested"] is True
        blocker.release.set()
        final = service.jobs.wait(handle["job"], timeout=30)
        assert final["state"] == "cancelled"
        # The in-flight cell finished (its result is cached for whoever
        # asks next); everything still pending was dropped, not run.
        assert len(final["records"]) == 1
        assert final["dropped"] == 4
        assert blocker.calls == 1
        assert service.jobs.metrics()["cells"]["dropped"] == 4
        assert service.drain(timeout=30)

    def test_cancel_finished_job_is_a_reporting_noop(self, figure1_payload):
        service = make_service()
        handle = service.jobs.submit(
            {"workflows": [figure1_payload], "solvers": ["exact"]}
        )
        service.jobs.wait(handle["job"], timeout=30)
        ack = service.jobs.cancel(handle["job"])
        assert ack["state"] == "done"
        assert service.jobs.metrics()["cancelled"] == 0
        assert service.drain(timeout=30)

    def test_drain_cancels_active_jobs(self, blocker, figure1_payload):
        service = make_service(workers=1, registry=blocker.registry)
        handle = service.jobs.submit(
            {
                "workflows": [figure1_payload],
                "gammas": [2, 3, 4],
                "solvers": ["blocker"],
            }
        )
        assert blocker.started.wait(30)
        job = service.jobs._jobs[handle["job"]]
        drained: list[bool] = []
        stopper = threading.Thread(target=lambda: drained.append(service.drain(30)))
        stopper.start()
        # Drain marks the job cancelled before joining it; only then does
        # the test let the in-flight cell finish.
        assert job.cancel.wait(30)
        blocker.release.set()
        stopper.join(30)
        assert drained == [True]
        final = service.jobs.status(handle["job"])
        assert final["state"] == "cancelled"
        assert final["dropped"] == 2

    def test_submit_after_drain_is_503(self, figure1_payload):
        service = make_service()
        assert service.drain(timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            service.jobs.submit({"workflows": [figure1_payload]})
        assert excinfo.value.status == 503


class TestJobTable:
    def test_unknown_job_is_404(self):
        service = make_service()
        for call in (service.jobs.status, service.jobs.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("no-such-job")
            assert excinfo.value.status == 404
        assert service.drain(timeout=30)

    def test_finished_jobs_expire_after_ttl(self, figure1_payload):
        service = make_service(job_ttl=60.0)
        handle = service.jobs.submit(
            {"workflows": [figure1_payload], "solvers": ["exact"]}
        )
        service.jobs.wait(handle["job"], timeout=30)
        assert service.jobs.expire() == 0  # TTL not reached yet
        assert service.jobs.expire(now=time.monotonic() + 61) == 1
        with pytest.raises(ServiceError) as excinfo:
            service.jobs.status(handle["job"])
        assert excinfo.value.status == 404
        assert service.jobs.metrics()["expired"] == 1
        assert service.drain(timeout=30)

    def test_full_table_evicts_finished_then_refuses_active(
        self, blocker, figure1_payload
    ):
        service = make_service(
            workers=1, registry=with_exact(blocker), max_jobs=1
        )
        done = service.jobs.submit(
            {"workflows": [figure1_payload], "solvers": ["exact"]}
        )
        service.jobs.wait(done["job"], timeout=30)
        # The finished job yields its slot to a new submission...
        active = service.jobs.submit(
            {"workflows": [figure1_payload], "gammas": [2], "solvers": ["blocker"]}
        )
        with pytest.raises(ServiceError):
            service.jobs.status(done["job"])  # evicted
        # ... but an active job never does: the table answers 429.
        assert blocker.started.wait(30)
        with pytest.raises(ServiceError) as excinfo:
            service.jobs.submit(
                {"workflows": [figure1_payload], "solvers": ["exact"]}
            )
        assert excinfo.value.status == 429
        blocker.release.set()
        service.jobs.wait(active["job"], timeout=30)
        assert service.drain(timeout=30)

    def test_list_reports_summaries_without_records(self, figure1_payload):
        service = make_service()
        handle = service.jobs.submit(
            {"workflows": [figure1_payload], "solvers": ["exact"]}
        )
        service.jobs.wait(handle["job"], timeout=30)
        listed = service.jobs.list_jobs()
        assert [job["job"] for job in listed] == [handle["job"]]
        assert "records" not in listed[0]
        assert listed[0]["state"] in TERMINAL_JOB_STATES
        assert service.drain(timeout=30)


class TestMaintenance:
    def test_gc_task_prunes_store_to_budget(self, tmp_path, figure1_payload):
        store_dir = tmp_path / "store"
        service = make_service(store=str(store_dir), store_max_bytes=0)
        service.solve_payload(
            {"workflow": figure1_payload, "gamma": 2, "kind": "set",
             "solver": "exact"}
        )
        summary = service.maintenance.run_once()
        assert summary["gc_store"]["deleted_files"] > 0
        metrics = service.maintenance.metrics()
        assert metrics["gc_runs"] == 1
        assert metrics["gc_deleted_bytes"] > 0
        assert metrics["runs"] == 1
        assert DerivationStore(store_dir).disk_stats()["files"] == 0
        assert service.drain(timeout=30)

    def test_task_failures_are_isolated_and_counted(self, monkeypatch):
        service = make_service()

        def boom() -> int:
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(service.jobs, "expire", boom)
        summary = service.maintenance.run_once()
        assert "RuntimeError" in summary["expire_jobs"]
        # The failing task neither killed the pass nor the other tasks.
        assert summary["flush_popularity"] == 0
        metrics = service.maintenance.metrics()
        assert metrics["task_failures"]["expire_jobs"] == 1
        assert metrics["runs"] == 1
        assert service.maintenance.run_once()  # still alive
        assert service.drain(timeout=30)

    def test_intervals_are_jittered(self):
        service = make_service()
        scheduler = service.maintenance
        scheduler.interval = 10.0
        delays = {scheduler._delay() for _ in range(32)}
        assert all(9.0 <= delay <= 11.0 for delay in delays)
        assert len(delays) > 1  # not a fixed cadence
        assert service.drain(timeout=30)

    def test_maintenance_thread_runs_and_stops_cleanly(self, figure1_payload):
        service = make_service(maintenance_interval=0.05)
        try:
            deadline = time.monotonic() + 10
            while service.maintenance.metrics()["runs"] == 0:
                assert time.monotonic() < deadline, "no maintenance pass ran"
                time.sleep(0.01)
        finally:
            assert service.drain(timeout=30)
        runs = service.maintenance.metrics()["runs"]
        time.sleep(0.15)  # would cover ~3 more passes if the thread leaked
        assert service.maintenance.metrics()["runs"] == runs


class TestPopularityAndWarmup:
    def test_popularity_persists_through_the_store_meta_tier(
        self, tmp_path, figure1_payload
    ):
        store_dir = str(tmp_path / "store")
        service = make_service(store=store_dir)
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact"}
        first = service.solve_payload(dict(body))
        service.solve_payload(dict(body))  # result-cache hit still counts
        service.solve_payload({**body, "kind": "cardinality"})
        store = DerivationStore(store_dir)
        assert not list(store.root.rglob("meta.json"))  # only the flush writes
        assert service.drain(timeout=30)  # drain flushes pending popularity

        fingerprint = first["fingerprint"]
        assert store.popularity(fingerprint) == 3
        popular = store.popular_workflows(5)
        assert [entry[0] for entry in popular] == [fingerprint]
        assert popular[0][2]["name"] == figure1_payload["name"]
        points = popular[0][3]
        assert [(gamma, kind) for gamma, kind, _backend in points] == [
            (2, "cardinality"), (2, "set")
        ]
        # Bumps accumulate across service lifetimes.
        store.bump_popularity(fingerprint, 3)
        assert store.popularity(fingerprint) == 6

    def test_restarted_service_with_warmup_compiles_before_first_request(
        self, tmp_path, figure1_payload
    ):
        """The acceptance bar: first solve of a popular fingerprint after a
        warm restart touches neither the store nor derivation: warm-up
        loaded its module packs and requirement lists."""
        store_dir = str(tmp_path / "store")
        first = make_service(store=store_dir)
        first.solve_payload(
            {"workflow": figure1_payload, "gamma": 2, "kind": "set",
             "solver": "exact"}
        )
        assert first.drain(timeout=30)

        second = make_service(store=store_dir, warmup=3)
        assert second.maintenance.metrics()["warmed_packs"] == 1
        # verify=True is a *different* result key (no stored result to
        # short-circuit), so this solves and certifies for real — from the
        # packs and lists warm-up preloaded.
        record = second.solve_payload(
            {"workflow": figure1_payload, "gamma": 2, "kind": "set",
             "solver": "exact", "verify": True}
        )
        assert record["from_store"] is False
        assert record["verified"] is True
        assert record["cache"]["store_hits"] == 0
        assert record["cache"]["store_misses"] == 0
        assert record["cache"]["derivation_misses"] == 0
        assert second.drain(timeout=30)

    def test_warmup_over_a_meta_without_points_warms_the_pack(
        self, tmp_path, figure1_payload
    ):
        """A meta an earlier commit wrote (payload and count, no points) is
        still warmed: its module packs load, and it gains points at a flush."""
        store_dir = str(tmp_path / "store")
        first = make_service(store=store_dir)
        fingerprint = first.solve_payload(
            {"workflow": figure1_payload, "gamma": 2, "kind": "set",
             "solver": "exact"}
        )["fingerprint"]
        assert first.drain(timeout=30)
        meta_path = DerivationStore(store_dir)._dir(fingerprint) / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["points"]
        meta_path.write_text(json.dumps(meta))

        second = make_service(store=store_dir)
        assert second.maintenance.warm_up(5) == 1
        record = second.solve_payload(
            {"workflow": figure1_payload, "gamma": 2, "kind": "set",
             "solver": "exact", "verify": True}
        )
        assert record["from_store"] is False
        assert record["verified"] is True
        # The packs came from warm-up; only the lists (no point recorded)
        # are read from the store, one per private module.
        private = [m for m in figure1_payload["modules"] if m["private"]]
        assert record["cache"]["store_hits"] == len(private)
        assert record["cache"]["store_misses"] == 0
        assert record["cache"]["derivation_misses"] == 0
        assert second.drain(timeout=30)
        assert json.loads(meta_path.read_text())["points"] == [[2, "set", "kernel"]]

    def test_non_integer_popularity_stops_neither_drain_nor_warm_up(
        self, tmp_path, figure1_payload
    ):
        store_dir = str(tmp_path / "store")
        store = DerivationStore(store_dir)

        def corrupt_count(fingerprint: str) -> None:
            meta_path = store._dir(fingerprint) / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["popularity"] = "lots"
            meta_path.write_text(json.dumps(meta))

        service = make_service(store=store_dir)
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact"}
        fingerprint = service.solve_payload(dict(body))["fingerprint"]
        assert service.flush_popularity() == 1  # writes the meta
        corrupt_count(fingerprint)
        service.solve_payload(dict(body))
        assert service.drain(timeout=30)  # flushes the pending bump
        assert store.popularity(fingerprint) == 1

        corrupt_count(fingerprint)
        restarted = make_service(store=store_dir, warmup=1)
        assert restarted.maintenance.metrics()["warmed_packs"] == 0
        assert restarted.drain(timeout=30)

    def test_concurrent_requests_lose_no_popularity(self, tmp_path, figure1_payload):
        """Request threads share the pending popularity record under the
        state lock: no count or point is lost."""
        store_dir = str(tmp_path / "store")
        service = make_service(store=store_dir)
        jobs = [
            parse_solve_payload(
                {"workflow": figure1_payload, "gamma": gamma, "kind": "set"},
                service.instances,
            )
            for gamma in (1, 2)
        ]

        def note() -> None:
            for index in range(200):
                service._note_popularity(jobs[index % 2])

        threads = [threading.Thread(target=note) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert service.drain(timeout=30)  # flushes the pending record
        [(_fp, count, payload, points)] = DerivationStore(
            store_dir
        ).popular_workflows(5)
        assert count == 8 * 200
        assert payload["name"] == figure1_payload["name"]
        assert points == [(1, "set", "kernel"), (2, "set", "kernel")]

    def test_warmup_without_store_or_popularity_is_a_noop(self, tmp_path):
        assert make_service().maintenance.warm_up(5) == 0
        cold = make_service(store=str(tmp_path / "empty"))
        assert cold.maintenance.warm_up(5) == 0
        assert cold.maintenance.metrics()["warmed_packs"] == 0

    def test_corrupt_warmup_payloads_fail_in_isolation(self, tmp_path):
        store = DerivationStore(tmp_path / "store")
        meta_dir = store.root / "ab" / ("ab" * 32)
        meta_dir.mkdir(parents=True)
        (meta_dir / "meta.json").write_text(
            '{"fingerprint": "%s", "popularity": 9, '
            '"workflow_payload": {"modules": "garbage"}}' % ("ab" * 32)
        )
        service = make_service(store=store)
        assert service.maintenance.warm_up(5) == 0
        assert service.maintenance.metrics()["task_failures"]["warm_up"] == 1
        assert service.drain(timeout=30)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"result_cache_size": -1},
            {"job_ttl": 0},
            {"max_jobs": 0},
            {"store_max_bytes": -1},
            {"warmup": -1},
            {"maintenance_interval": -0.5},
        ],
    )
    def test_nonsensical_configuration_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_service(**kwargs)

    def test_result_cache_size_bound_is_respected(self, figure1_payload):
        service = make_service(result_cache_size=1)
        base = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact"}
        service.solve_payload(dict(base, seed=1))
        service.solve_payload(dict(base, seed=2))  # evicts seed=1
        service.solve_payload(dict(base, seed=1))
        assert service.metrics()["result_hits"]["memory"] == 0
        assert service.drain(timeout=30)
