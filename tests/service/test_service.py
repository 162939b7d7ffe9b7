"""Tests for the service core: module-tier reuse, timeouts, drain, sweeps."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import (
    ServiceError,
    ServiceTimeout,
    SolveService,
    parse_solve_payload,
)
from repro.workloads import figure1_workflow
from repro.workloads.serialization import problem_to_dict
from repro.core import SecureViewProblem


class TestInstanceKeying:
    def test_new_instance_is_hashed_from_its_payload_only(
        self, tmp_path, figure1_payload, monkeypatch
    ):
        """The fingerprint the service keys a request by is handed to the
        cache, so neither tabulates the rebuilt workflow to hash it."""
        import repro.workloads.fingerprint as fingerprint

        def tabulated(workflow):
            raise AssertionError("a rebuilt workflow was tabulated to be hashed")

        monkeypatch.setattr(fingerprint, "workflow_fingerprint", tabulated)
        service = SolveService(store=str(tmp_path / "store"), workers=1)
        try:
            record = service.solve_payload(
                {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
            )
        finally:
            assert service.drain(timeout=30)
        assert "error" not in record and record["from_store"] is False


class TestRecordLabels:
    """A record carries the label of the request it answers, even when
    another request with the same content computed it."""

    def test_result_cache_hit_carries_its_own_label(self, figure1_payload):
        service = SolveService(workers=1, default_timeout=30)
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
        try:
            alice = service.solve_payload(dict(body, label="alice"))
            bob = service.solve_payload(dict(body, label="bob"))
            assert service.metrics()["result_hits"]["memory"] == 1
        finally:
            assert service.drain(timeout=30)
        assert alice["workflow"] == "alice"
        assert bob["workflow"] == "bob"
        assert bob["cost"] == alice["cost"]

    def test_coalesced_follower_carries_its_own_label(self, blocker, figure1_payload):
        service = SolveService(workers=2, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload,
            "gamma": 2,
            "kind": "set",
            "solver": "blocker",
        }
        key = parse_solve_payload(dict(body), service.instances).key
        records: dict[str, dict] = {}

        def call(label: str) -> None:
            records[label] = service.solve_payload(dict(body, label=label))

        leader = threading.Thread(target=call, args=("alice",))
        follower = threading.Thread(target=call, args=("bob",))
        try:
            leader.start()
            # "alice" leads: its computation is blocked in the solver
            # before "bob" attaches to it.
            assert blocker.started.wait(30)
            follower.start()
            assert service.coalescer.await_waiters(key, 2, timeout=30)
        finally:
            blocker.release.set()
            leader.join(timeout=30)
            follower.join(timeout=30)
            assert service.drain(timeout=30)
        assert blocker.calls == 1
        assert records["bob"]["coalesced"] is True
        assert records["alice"]["workflow"] == "alice"
        assert records["bob"]["workflow"] == "bob"


class TestModuleTierReuse:
    def test_overlapping_workflows_pay_the_shared_module_once(
        self, overlapping_payloads
    ):
        left, right = overlapping_payloads
        service = SolveService(workers=2, default_timeout=30)
        service.solve_payload({"workflow": left, "gamma": 2, "kind": "set"})
        service.solve_payload({"workflow": right, "gamma": 2, "kind": "set"})
        metrics = service.metrics()
        # Three distinct module contents across the two workflows; the
        # shared one is derived once and *reused* by the second workflow.
        assert metrics["cache"]["rederived_modules"] == 3
        assert metrics["cache"]["reused_modules"] == 1
        assert metrics["coalesced"] == 0  # distinct keys — sharing, not coalescing
        assert service.drain(timeout=30)

    @pytest.mark.parametrize("exec_mode", ["threads", "processes"])
    def test_stored_error_records_answer_422_like_a_fresh_solve(
        self, tmp_path, figure1_payload, exec_mode
    ):
        """A sweep-persisted infeasibility record must not become a 200, and
        every repeat is a store hit, whichever tier reads the store."""
        from repro.engine.store import DerivationStore, ResultKey
        from repro.service import InstanceCache, parse_solve_payload

        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact"}
        job = parse_solve_payload(dict(body), InstanceCache())
        store = DerivationStore(str(tmp_path / "store"))
        store.save_result(
            job.fingerprint,
            ResultKey(2, "set", "exact", None),
            {
                "workflow": job.label, "gamma": 2, "kind": "set",
                "solver": "exact", "seed": None, "method": "exact",
                "cost": float("inf"), "error": "empty requirement list",
                "error_type": "RequirementError",
            },
        )
        service = SolveService(
            store=store,
            workers=1,
            default_timeout=30,
            maintenance_interval=None,
            exec_mode=exec_mode,
        )
        try:
            for _ in range(2):
                with pytest.raises(ServiceError) as excinfo:
                    service.solve_payload(dict(body))
                assert excinfo.value.status == 422
                assert "empty requirement list" in str(excinfo.value)
            # Never memorized as a success: both answers read the store.
            assert service.metrics()["result_hits"]["store"] == 2
        finally:
            assert service.drain(timeout=30)

    def test_derivation_infeasibility_is_persisted_and_repeats_from_the_store(
        self, tmp_path, figure1_payload
    ):
        from repro.exceptions import RequirementError

        body = {"workflow": figure1_payload, "gamma": 64, "kind": "set"}
        store = str(tmp_path / "store")
        first = SolveService(store=store, workers=1, default_timeout=30)
        with pytest.raises(RequirementError) as fresh:  # answered as a 422
            first.solve_payload(dict(body))
        assert first.drain(timeout=30)
        second = SolveService(store=store, workers=1, default_timeout=30)
        with pytest.raises(ServiceError) as stored:
            second.solve_payload(dict(body))
        assert stored.value.status == 422
        assert str(stored.value) == str(fresh.value)
        assert second.metrics()["result_hits"]["store"] == 1
        assert second.metrics()["cache"]["derivation_misses"] == 0
        assert second.drain(timeout=30)

    def test_store_backed_service_shares_results_across_restarts(
        self, tmp_path, figure1_payload
    ):
        body = {
            "workflow": figure1_payload, "gamma": 2,
            "kind": "set", "solver": "exact",
        }
        first = SolveService(
            store=str(tmp_path / "store"), workers=1, default_timeout=30
        )
        cold = first.solve_payload(dict(body))
        assert not cold["from_store"]
        assert first.drain(timeout=30)

        second = SolveService(
            store=str(tmp_path / "store"), workers=1, default_timeout=30
        )
        warm = second.solve_payload(dict(body))
        assert warm["from_store"]
        assert warm["cost"] == cold["cost"]
        # Same record schema whichever tier answered.
        assert set(warm) == set(cold)
        assert second.metrics()["result_hits"]["store"] == 1
        assert second.drain(timeout=30)


class TestTimeouts:
    def test_deadline_expiry_raises_504_but_the_result_still_lands(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set",
            "solver": "blocker", "timeout": 0.05,
        }
        with pytest.raises(ServiceTimeout) as excinfo:
            service.solve_payload(dict(body))
        assert excinfo.value.status == 504
        assert service.metrics()["timeouts"] == 1
        # The abandoned computation still completes, resolves, and caches —
        # a follow-up of the same request attaches or hits the cache, but
        # never recomputes.
        blocker.release.set()
        retry = service.solve_payload(dict(body, timeout=30))
        assert retry["cost"] > 0
        assert blocker.calls == 1
        assert service.drain(timeout=30)


class TestDrain:
    def test_drain_waits_for_inflight_rejects_new_and_completes(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set", "solver": "blocker"
        }
        outcome: dict = {}

        def call() -> None:
            outcome["record"] = service.solve_payload(dict(body))

        solver_thread = threading.Thread(target=call)
        solver_thread.start()
        assert blocker.started.wait(30)

        drained = threading.Event()
        drain_thread = threading.Thread(
            target=lambda: (service.drain(), drained.set())
        )
        drain_thread.start()
        assert service.drain_started.wait(30)

        # While the blocked computation is in flight the drain must not
        # complete, and new work must be refused with 503.
        assert not drained.is_set()
        with pytest.raises(ServiceError) as excinfo:
            service.solve_payload(
                {"workflow": figure1_payload, "gamma": 3, "kind": "set"}
            )
        assert excinfo.value.status == 503

        blocker.release.set()
        solver_thread.join(timeout=30)
        drain_thread.join(timeout=30)
        assert drained.is_set()
        assert outcome["record"]["cost"] > 0  # in-flight work was not dropped
        assert service.in_flight == 0

    def test_drain_is_idempotent(self, figure1_payload):
        service = SolveService(workers=1, default_timeout=30)
        service.solve_payload({"workflow": figure1_payload, "gamma": 2, "kind": "set"})
        assert service.drain(timeout=30)
        assert service.drain(timeout=30)


class TestSweep:
    def test_sweep_expands_deterministically_and_isolates_failures(
        self, figure1_payload
    ):
        service = SolveService(workers=2, default_timeout=30)
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": [2],
                "kinds": ["set"],
                "solvers": ["exact", "greedy", "no-such-solver"],
                "seeds": [0],
            }
        )
        assert report["cells"] == 3
        assert [record["index"] for record in report["records"]] == [0, 1, 2]
        assert report["errors"] == 1
        failed = [r for r in report["records"] if "error" in r]
        assert failed[0]["solver"] == "no-such-solver"
        assert failed[0]["error_type"] == "SolverError"
        ok = [r for r in report["records"] if "error" not in r]
        assert all(r["cost"] > 0 for r in ok)
        # One instance, one (Γ, kind) point: the derivation ran once and
        # the second solver reused it through the shared hot cache.
        assert report["stats"]["derivation_misses"] == 1
        assert service.drain(timeout=30)

    def test_sweep_accepts_problem_payloads(self):
        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        service = SolveService(workers=2, default_timeout=30)
        report = service.sweep_payload(
            {"problems": [problem_to_dict(problem)], "solvers": ["exact", "greedy"]}
        )
        assert report["cells"] == 2 and report["errors"] == 0
        assert service.drain(timeout=30)

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"workflows": "nope"},
            {"workflows": [], "problems": []},
            {"workflows": None, "problems": None},
            {"workflows": [{"modules": []}], "gammas": "2"},
        ],
    )
    def test_malformed_sweeps_are_rejected(self, body):
        service = SolveService(workers=1, default_timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            service.sweep_payload(body)
        assert excinfo.value.status == 400
        assert service.drain(timeout=30)

    def test_null_axes_mean_defaults_not_a_crash(self, figure1_payload):
        """Explicit JSON nulls on grid axes behave like absent keys (400/200,
        never a 500 TypeError)."""
        service = SolveService(workers=1, default_timeout=30)
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": None,
                "kinds": None,
                "solvers": ["exact"],
                "seeds": None,
            }
        )
        assert report["cells"] == 1 and report["errors"] == 0
        assert report["records"][0]["gamma"] == 2  # the default axis
        assert service.drain(timeout=30)

    def test_repeated_sweeps_hit_the_result_cache(self, figure1_payload):
        """A storeless service must not re-run solvers for a repeated grid."""
        service = SolveService(workers=2, default_timeout=30)
        grid = {"workflows": [figure1_payload], "solvers": ["exact", "greedy"]}
        first = service.sweep_payload(dict(grid))
        second = service.sweep_payload(dict(grid))
        assert first["errors"] == second["errors"] == 0
        assert service.metrics()["result_hits"]["memory"] == 2
        assert [r["cost"] for r in second["records"]] == [
            r["cost"] for r in first["records"]
        ]
        assert service.drain(timeout=30)

    def test_sweep_deadline_is_shared_not_per_cell(self, blocker, figure1_payload):
        """N blocked cells time out within ~one budget, not N budgets."""
        import time

        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        started = time.monotonic()
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": [2, 3, 4],
                "solvers": ["blocker"],
                "timeout": 0.2,
            }
        )
        elapsed = time.monotonic() - started
        assert report["errors"] == 3
        assert all(r["error_type"] == "ServiceTimeout" for r in report["records"])
        # Three cells against one shared 0.2s deadline: well under 3 x 0.2s
        # plus scheduling slack.
        assert elapsed < 0.5, elapsed
        blocker.release.set()
        assert service.drain(timeout=30)


@pytest.fixture
def parse_calls(monkeypatch):
    """Count calls into the one parse path the raw-body memo falls back to."""
    from repro.service import jobs

    calls = []
    real = jobs.parse_solve_payload

    def counting(body, instances):
        calls.append(body)
        return real(body, instances)

    monkeypatch.setattr(jobs, "parse_solve_payload", counting)
    return calls


class TestRawBodyMemo:
    """``POST /solve`` bodies are memoized by digest of their raw bytes."""

    def test_exact_byte_repeat_skips_decode_and_parse(
        self, parse_calls, large_payload
    ):
        from repro.service import ServiceClient, ServiceServer

        service = SolveService(workers=1, default_timeout=30)
        server = ServiceServer(service, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=30)
            records = [
                client.solve(workflow=large_payload, gamma=2, kind="set")
                for _ in range(3)
            ]
        finally:
            server.stop(drain_timeout=30)
        assert len(parse_calls) == 1  # the HTTP handler passed raw bytes
        assert len({record["cost"] for record in records}) == 1
        metrics = service.metrics()
        # Everything after parsing still ran for each repeat.
        assert metrics["requests"]["solve"] == 3
        assert metrics["result_hits"]["memory"] == 2

    @pytest.mark.parametrize(
        "raw, parses",
        [
            (b"{not json", 0),  # fails decoding, before the parser
            (b'{"workflow": {"modules": []}, "gamma": "two"}', 1),
        ],
    )
    def test_malformed_bodies_fail_every_time_and_are_never_cached(
        self, parse_calls, raw, parses
    ):
        service = SolveService(workers=1, default_timeout=30)
        for attempt in (1, 2):
            with pytest.raises(ServiceError) as excinfo:
                service.solve_payload(raw)
            assert excinfo.value.status == 400
            assert len(parse_calls) == attempt * parses
        assert service.metrics()["errors"] == 2
        assert service.drain(timeout=30)

    def test_byte_spellings_of_one_workflow_share_a_key_and_a_derivation(
        self, figure1_payload
    ):
        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set"}
        reordered = dict(figure1_payload)
        reordered["modules"] = list(reversed(figure1_payload["modules"]))
        raw_a = json.dumps(body).encode()
        raw_b = json.dumps(
            {"kind": "set", "gamma": 2, "workflow": reordered}, sort_keys=True
        ).encode()
        assert raw_a != raw_b
        service = SolveService(workers=1, default_timeout=30)
        job_a = service.instances.solve_job(raw_a)
        job_b = service.instances.solve_job(raw_b)
        assert job_a.key == job_b.key
        assert job_a.instance is job_b.instance
        first = service.solve_payload(raw_a)
        second = service.solve_payload(raw_b)
        assert first["cost"] == second["cost"]
        metrics = service.metrics()
        assert metrics["leaders"] == 1
        assert metrics["result_hits"]["memory"] == 1
        assert metrics["cache"]["derivation_misses"] == 1
        assert service.drain(timeout=30)

    def test_draining_service_refuses_a_memoized_repeat(
        self, parse_calls, figure1_payload
    ):
        raw = json.dumps({"workflow": figure1_payload, "gamma": 2}).encode()
        service = SolveService(workers=1, default_timeout=30)
        service.solve_payload(raw)
        assert service.drain(timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            service.solve_payload(raw)
        assert excinfo.value.status == 503
        assert len(parse_calls) == 1  # the repeat hit the memo and was still refused

    def test_memo_is_bounded_by_the_instance_cache_size(self, figure1_payload):
        from repro.engine import SolveRunner
        from repro.service import InstanceCache

        instances = InstanceCache(SolveRunner(max_instances=2))
        for gamma in (2, 3, 4):
            raw = json.dumps({"workflow": figure1_payload, "gamma": gamma}).encode()
            assert instances.solve_job(raw).gamma == gamma
        assert len(instances._by_body) == 2
