"""Tests for the request codec: validation, canonicalization, coalescing keys."""

from __future__ import annotations

import pytest

from repro.service import InstanceCache, ServiceError, parse_solve_payload
from repro.workloads import figure1_workflow
from repro.workloads.serialization import problem_to_dict
from repro.core import SecureViewProblem


@pytest.fixture
def instances() -> InstanceCache:
    return InstanceCache()


def _solve_body(payload: dict, **extra) -> dict:
    body = {"workflow": payload, "gamma": 2, "kind": "set"}
    body.update(extra)
    return body


class TestValidation:
    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            [],
            {},
            {"gamma": 2},  # no instance
            {"workflow": {}, "problem": {}, "gamma": 2},  # both instances
            {"workflow": "nope", "gamma": 2},
            {"workflow": {"modules": []}},  # gamma missing
            {"workflow": {"modules": []}, "gamma": 0},
            {"workflow": {"modules": []}, "gamma": True},
            {"workflow": {"modules": []}, "gamma": 2, "kind": "frob"},
            {"problem": {}, "gamma": 2},  # problems carry their own gamma
        ],
    )
    def test_malformed_bodies_are_rejected_with_400(self, body, instances):
        with pytest.raises(ServiceError) as excinfo:
            parse_solve_payload(body, instances)
        assert excinfo.value.status == 400

    def test_invalid_workflow_payload_is_a_400_not_a_crash(self, instances):
        body = {"workflow": {"modules": [{"name": "broken"}]}, "gamma": 2}
        with pytest.raises(ServiceError) as excinfo:
            parse_solve_payload(body, instances)
        assert excinfo.value.status == 400
        assert "invalid workflow payload" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "seven"),
            ("seed", True),
            ("label", 3),
            ("solver", ""),
            ("solver", 3),
            ("timeout", "soon"),
            ("timeout", -1),
            ("timeout", 0),
            ("costs", ["a1", 2.0]),
            ("costs", {"a1": "expensive"}),
        ],
    )
    def test_bad_parameter_values_are_rejected(
        self, field, value, instances, figure1_payload
    ):
        with pytest.raises(ServiceError) as excinfo:
            parse_solve_payload(
                _solve_body(figure1_payload, **{field: value}), instances
            )
        assert excinfo.value.status == 400


class TestCanonicalization:
    def test_defaults(self, instances, figure1_payload):
        job = parse_solve_payload({"workflow": figure1_payload, "gamma": 2}, instances)
        assert job.kind == "set"
        assert job.solver == "auto"
        assert job.seed is None
        assert job.costs is None and job.timeout is None
        assert job.label == figure1_payload["name"]

    def test_key_is_the_issue_tuple_plus_costs(self, instances, figure1_payload):
        job = parse_solve_payload(
            _solve_body(figure1_payload, solver="exact", seed=3), instances
        )
        assert job.key == (job.fingerprint, 2, "set", "exact", 3, None)

    @pytest.mark.parametrize("backend", ["reference", "quantum"])
    def test_a_backend_field_is_ignored(self, backend, figure1_payload):
        """A body naming a privacy backend keys like one naming none, and each
        repeat is answered from the result cache."""
        from repro.service import SolveService

        service = SolveService(workers=1, maintenance_interval=None)
        try:
            plain = parse_solve_payload(
                _solve_body(figure1_payload, solver="exact"), service.instances
            )
            named = _solve_body(figure1_payload, solver="exact", backend=backend)
            assert parse_solve_payload(named, service.instances).key == plain.key
            service.solve_payload(_solve_body(figure1_payload, solver="exact"))
            for _ in range(2):
                record = service.solve_payload(dict(named))
                assert record["cost"] == 3.0
            assert service.metrics()["result_hits"]["memory"] == 2
        finally:
            assert service.drain(timeout=30)

    def test_module_order_does_not_change_the_key(self, instances, figure1_payload):
        shuffled = dict(figure1_payload)
        shuffled["modules"] = list(reversed(figure1_payload["modules"]))
        job_a = parse_solve_payload(_solve_body(figure1_payload), instances)
        job_b = parse_solve_payload(_solve_body(shuffled), instances)
        assert job_a.key == job_b.key
        # ... and both requests resolve to the *same* live object, so the
        # engine's identity-keyed memory tables hit across them.
        assert job_a.instance is job_b.instance

    def test_cost_overrides_split_the_key(self, instances, figure1_payload):
        base = parse_solve_payload(_solve_body(figure1_payload), instances)
        priced = parse_solve_payload(
            _solve_body(figure1_payload, costs={"a3": 10.0}), instances
        )
        assert base.key != priced.key
        assert priced.costs == (("a3", 10.0),)

    def test_problem_payloads_key_like_the_sweep_executor(self, instances):
        from repro.workloads.fingerprint import payload_fingerprint

        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        payload = problem_to_dict(problem)
        job = parse_solve_payload({"problem": payload}, instances)
        assert job.gamma is None and job.kind is None
        assert job.fingerprint == payload_fingerprint({"problem": payload})

    def test_repeat_payloads_reuse_the_rebuilt_instance(
        self, instances, figure1_payload
    ):
        job_a = parse_solve_payload(_solve_body(figure1_payload), instances)
        job_b = parse_solve_payload(_solve_body(figure1_payload), instances)
        assert job_a.instance is job_b.instance

    def test_concurrent_first_requests_converge_on_one_instance(
        self, instances, figure1_payload
    ):
        """Simultaneous cold requests must not each rebuild their own object."""
        import threading

        jobs = [None] * 8
        barrier = threading.Barrier(len(jobs))

        def resolve(slot: int) -> None:
            barrier.wait(timeout=30)
            jobs[slot] = parse_solve_payload(_solve_body(figure1_payload), instances)

        threads = [
            threading.Thread(target=resolve, args=(i,)) for i in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(job is not None for job in jobs)
        assert len({id(job.instance) for job in jobs}) == 1

    def test_concurrent_first_jobs_converge_on_one_bounded_planner_table(
        self, figure1_payload
    ):
        """Racing cold jobs share one planner per key; the bound always holds."""
        import sys
        import threading

        from repro.engine import SolveRunner

        # The service's runner, with a smaller planner bound.
        runner = SolveRunner(max_planners=2)
        instances = InstanceCache(runner)
        jobs = [
            parse_solve_payload(_solve_body(figure1_payload, gamma=g), instances)
            for g in (2, 3, 4)
        ]
        slots = 12  # more threads than cores, several per key
        planners = [None] * slots
        sizes: list[int] = []
        barrier = threading.Barrier(slots)

        def planner_of(job):
            return runner.planner(
                job.source, job.instance, job.fingerprint, job.gamma, job.kind
            )

        def build(slot: int) -> None:
            barrier.wait(timeout=30)
            planners[slot] = planner_of(jobs[slot % 2])
            sizes.append(len(runner._planners))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(slots)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sizes) == slots and max(sizes) <= 2
        assert len({id(planners[i]) for i in range(0, slots, 2)}) == 1
        assert len({id(planners[i]) for i in range(1, slots, 2)}) == 1
        planner_of(jobs[2])  # a third key evicts the oldest
        assert len(runner._planners) == 2
