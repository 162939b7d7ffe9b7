"""End-to-end tests over real HTTP: routes, error mapping, shutdown."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    SolveService,
)
from repro.workloads import figure1_workflow, workflow_to_dict
from repro.workloads.serialization import problem_to_dict
from repro.core import SecureViewProblem


@pytest.fixture
def served():
    """A running server on an ephemeral port, stopped after the test."""
    service = SolveService(workers=2, default_timeout=30)
    server = ServiceServer(service, port=0).start()
    try:
        yield service, server, ServiceClient(server.url, timeout=30)
    finally:
        server.stop(drain_timeout=30)


class TestRoutes:
    def test_healthz_and_metrics(self, served):
        _, _, client = served
        health = client.healthz()
        assert health["status"] == "ok" and health["in_flight"] == 0
        metrics = client.metrics()
        assert metrics["requests"]["healthz"] == 1
        assert metrics["workers"] == 2
        assert "cache" in metrics and "coalesced" in metrics

    def test_solve_roundtrip_with_workflow_object(self, served):
        _, _, client = served
        record = client.solve(
            workflow=figure1_workflow(), gamma=2, kind="set",
            solver="exact",
        )
        assert record["cost"] == 3.0
        assert record["verified"] is True
        assert record["resolved_solver"] == "exact"

    def test_solve_roundtrip_with_problem_object(self, served):
        _, _, client = served
        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        record = client.solve(problem=problem_to_dict(problem), solver="exact")
        assert record["cost"] == 3.0

    def test_sweep_roundtrip(self, served):
        _, _, client = served
        report = client.sweep(
            workflows=[figure1_workflow()], solvers=["exact", "greedy"]
        )
        assert report["cells"] == 2 and report["errors"] == 0


def _scrubbed(record: dict) -> dict:
    return {
        key: value
        for key, value in record.items()
        if key not in ("seconds", "cache", "from_store")
    }


class TestEveryAnswerIsCertified:
    """Every record carries ``verified``; a body or grid naming ``verify``
    keys like one that omits it and shares its one computation."""

    @staticmethod
    def _body() -> dict:
        return {"workflow": workflow_to_dict(figure1_workflow()), "gamma": 2,
                "kind": "set", "solver": "exact"}

    def test_solve_bodies_naming_verify_share_one_computation(self, served):
        _, _, client = served
        plain = client.request("POST", "/solve", self._body())
        assert plain["verified"] is True
        for flag in (True, False):
            named = client.request("POST", "/solve", {**self._body(), "verify": flag})
            assert _scrubbed(named) == _scrubbed(plain)
        metrics = client.metrics()
        assert metrics["leaders"] == 1
        assert metrics["result_hits"]["memory"] == 2

    def test_sweep_grids_naming_verify_share_one_computation(self, served):
        _, _, client = served
        body = self._body()
        grid = {"workflows": [body["workflow"]], "gammas": [2], "kinds": ["set"],
                "solvers": ["exact", "greedy"], "seeds": [0]}
        plain = client.request("POST", "/sweep", grid)
        assert [record["verified"] for record in plain["records"]] == [True, True]
        for flag in (True, False):
            named = client.request("POST", "/sweep", {**grid, "verify": flag})
            assert [_scrubbed(r) for r in named["records"]] == [
                _scrubbed(r) for r in plain["records"]
            ]
        metrics = client.metrics()
        assert metrics["leaders"] == 2
        assert metrics["result_hits"]["memory"] == 4

    def test_an_undetermined_answer_is_still_an_answer(self, served):
        """Baked lists ``repro generate --modules 5 --seed 7`` writes leave
        modules no certificate can settle within the work limit."""
        from repro.workloads import random_problem

        _, _, client = served
        problem = random_problem(n_modules=5, kind="set", seed=7)
        record = client.solve(problem=problem_to_dict(problem), solver="auto")
        assert record["verified"] is None
        assert record["cost"] < float("inf")

    def test_sweep_jobs_carry_verified(self, served):
        _, _, client = served
        handle = client.sweep_async(
            workflows=[figure1_workflow()], solvers=["exact", "greedy"]
        )
        final = client.wait_job(handle["job"], timeout=30)
        assert final["state"] == "done"
        assert [record["verified"] for record in final["records"]] == [True, True]


class TestV1Surface:
    """The versioned API: /v1 routes, version, keep-alive, envelopes."""

    def test_version_reports_package_api_and_store_formats(self, served, tmp_path):
        _, _, client = served
        payload = client.version()
        from repro import __version__

        assert payload["package"] == __version__
        assert payload["api"] == "v1"
        assert payload["store"] is None  # in-memory service
        stored = SolveService(workers=1, store=str(tmp_path / "store"))
        server = ServiceServer(stored, port=0).start()
        try:
            stored_version = ServiceClient(server.url, timeout=30).version()
            block = stored_version["store"]
            assert block["format_version"] == 2
        finally:
            server.stop(drain_timeout=30)

    def test_keep_alive_reuses_one_connection(self, served):
        _, server, client = served
        client.healthz()
        sock = client._local.conn.sock
        assert sock is not None
        client.metrics()
        client.version()
        assert client._local.conn.sock is sock  # same socket across calls

    def test_error_envelope_carries_type_message_status(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/no-such-route")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "ServiceError"
        envelope = excinfo.value.payload["error"]
        assert envelope["status"] == 404 and "no such path" in envelope["message"]


class TestKeepAliveLatency:
    """A warm keep-alive round trip costs its work, not a TCP stall.

    A response written in two pieces (headers, then body) waits on the
    client's delayed ACK — ~40 ms per request on Linux — so a healthy
    loopback round trip sits far below the 10 ms bound and a stalled one
    far above it.
    """

    def test_healthz_round_trips_stay_fast(self, served, median_round_trip_ms):
        _, _, client = served
        client.healthz()
        assert median_round_trip_ms(client.healthz) < 10.0

    def test_large_solve_round_trips_stay_fast(
        self, served, large_payload, median_round_trip_ms
    ):
        _, _, client = served
        assert len(json.dumps({"workflow": large_payload})) > 2000

        def solve() -> None:
            client.solve(workflow=large_payload, gamma=2, kind="set")

        solve()  # computed once; every timed repeat is a result-cache hit
        assert median_round_trip_ms(solve) < 10.0

    def test_connection_burst_is_accepted_without_retransmits(self, served):
        """Many clients connecting at once must all be queued for accept.

        A listen backlog smaller than the burst drops SYNs, and each
        dropped one costs its client a 1 s retransmission timeout.
        """
        _, server, _ = served
        clients = 32
        barrier = threading.Barrier(clients)
        seconds: list[float] = []

        def connect() -> None:
            client = ServiceClient(server.url, timeout=30)
            barrier.wait(timeout=30)
            started = time.perf_counter()
            client.healthz()
            seconds.append(time.perf_counter() - started)

        threads = [threading.Thread(target=connect) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(seconds) == clients
        assert max(seconds) < 0.9, sorted(seconds)[-3:]


class TestErrorMapping:
    def test_malformed_json_body_is_400(self, served):
        _, server, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("POST", "/solve", payload=None)  # empty body
        assert excinfo.value.status == 400
        request = urllib.request.Request(
            f"{server.url}/v1/solve",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(request, timeout=30)
        assert http_error.value.code == 400
        envelope = json.loads(http_error.value.read())["error"]
        assert "not valid JSON" in envelope["message"]
        assert envelope["type"] == "ServiceError"
        assert envelope["status"] == 400

    def test_invalid_payload_is_400_with_reason(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request(
                "POST", "/solve", {"workflow": {"modules": []}, "gamma": "two"}
            )
        assert excinfo.value.status == 400
        assert "gamma" in str(excinfo.value)

    @pytest.mark.parametrize("route", ["/sweep", "/jobs/sweep"])
    def test_empty_sweep_axis_is_400(self, served, route):
        """An empty axis names no cells: a 400, not a grid of defaults."""
        service, _, client = served
        grid = {
            "workflows": [workflow_to_dict(figure1_workflow())],
            "solvers": [],
        }
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("POST", route, grid)
        assert excinfo.value.status == 400
        assert "'solvers' must not be empty" in str(excinfo.value)
        assert service.jobs.metrics()["submitted"] == 0

    def test_unknown_solver_is_422(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.solve(workflow=figure1_workflow(), gamma=2, solver="no-such")
        assert excinfo.value.status == 422

    def test_unknown_path_is_404(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as post_excinfo:
            client.request("POST", "/healthz", {})
        assert post_excinfo.value.status == 404

    def test_error_cells_serialize_as_strict_json(self, served, figure1_payload):
        """Partial-failure sweep reports must parse under RFC 8259 rules."""
        _, server, _ = served
        request = urllib.request.Request(
            f"{server.url}/v1/sweep",
            data=json.dumps(
                {"workflows": [figure1_payload], "solvers": ["no-such-solver"]}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
        assert b"Infinity" not in raw and b"NaN" not in raw

        def _reject_constants(token: str) -> None:
            raise AssertionError(f"non-RFC JSON constant {token!r} in response")

        report = json.loads(raw.decode("utf-8"), parse_constant=_reject_constants)
        assert report["errors"] == 1
        assert report["records"][0]["cost"] is None

    def test_client_socket_timeout_is_a_controlled_error(
        self, blocker, figure1_payload
    ):
        """A response slower than the client deadline must not traceback."""
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        server = ServiceServer(service, port=0).start()
        try:
            impatient = ServiceClient(server.url, timeout=0.2)
            with pytest.raises(ServiceClientError) as excinfo:
                # No request-level timeout: the server would hold the
                # connection for its 30s default, far past the socket
                # deadline.
                impatient.solve(workflow=figure1_payload, gamma=2, solver="blocker")
            assert excinfo.value.status == 0
            assert "timed out" in str(excinfo.value)
        finally:
            blocker.release.set()
            server.stop(drain_timeout=30)

    def test_timeout_is_504(self, blocker, figure1_payload):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        server = ServiceServer(service, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=30)
            with pytest.raises(ServiceClientError) as excinfo:
                client.solve(
                    workflow=figure1_payload, gamma=2, solver="blocker", timeout=0.05
                )
            assert excinfo.value.status == 504
        finally:
            blocker.release.set()
            server.stop(drain_timeout=30)


class TestJobRoutes:
    def test_async_sweep_roundtrip(self, served, figure1_payload):
        _, server, client = served
        # 202 on the wire: accepted, not done.
        request = urllib.request.Request(
            f"{server.url}/v1/jobs/sweep",
            data=json.dumps(
                {"workflows": [figure1_payload], "solvers": ["exact", "greedy"]}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 202
            handle = json.loads(response.read().decode("utf-8"))
        assert handle["cells"] == 2

        snapshots: list[dict] = []
        final = client.wait_job(handle["job"], timeout=30, poll=0.02,
                                on_progress=snapshots.append)
        assert final["state"] == "done"
        assert final["completed"] == 2 and final["failed"] == 0
        assert [r["index"] for r in final["records"]] == [0, 1]
        assert snapshots[-1] == final
        listed = client.jobs()
        assert handle["job"] in [job["job"] for job in listed]
        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 1
        assert metrics["jobs"]["done"] == 1
        assert metrics["jobs"]["cells"]["completed"] == 2
        assert metrics["requests"]["jobs"] >= 2
        assert "maintenance" in metrics

    def test_cancel_over_http(self, blocker, figure1_payload):
        service = SolveService(workers=1, registry=blocker.registry,
                               default_timeout=30)
        server = ServiceServer(service, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=30)
            handle = client.sweep_async(
                workflows=[figure1_payload], gammas=[2, 3, 4],
                solvers=["blocker"],
            )
            assert blocker.started.wait(30)
            ack = client.cancel_job(handle["job"])
            assert ack["cancel_requested"] is True
            blocker.release.set()
            final = client.wait_job(handle["job"], timeout=30, poll=0.02)
            assert final["state"] == "cancelled"
            assert final["dropped"] == 2
        finally:
            blocker.release.set()
            server.stop(drain_timeout=30)

    def test_unknown_job_is_404_on_get_and_delete(self, served):
        _, _, client = served
        for method, call in (
            ("GET", lambda: client.job("no-such-job")),
            ("DELETE", lambda: client.cancel_job("no-such-job")),
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == 404, method
        # Nested paths under /jobs/ are malformed, not routable.
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/jobs/a/b")
        assert excinfo.value.status == 404

    def test_malformed_grid_is_400_not_a_job(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("POST", "/jobs/sweep", {"workflows": "nope"})
        assert excinfo.value.status == 400
        assert client.jobs() == []


class TestShutdown:
    def test_healthz_reports_draining_with_503(self, blocker, figure1_payload):
        service = SolveService(workers=1, registry=blocker.registry,
                               default_timeout=30)
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=30)
        health = client.healthz()
        assert health["status"] == "ok" and health["draining"] is False

        def call() -> None:
            client.solve(workflow=figure1_payload, gamma=2, solver="blocker")

        request_thread = threading.Thread(target=call)
        request_thread.start()
        assert blocker.started.wait(30)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert service.drain_started.wait(30)
        # Mid-drain: the body still answers, but at the status level load
        # balancers see "stop routing here".
        with pytest.raises(ServiceClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.payload["status"] == "draining"
        assert excinfo.value.payload["draining"] is True
        blocker.release.set()
        request_thread.join(timeout=30)
        stopper.join(timeout=30)

    def test_shutdown_endpoint_drains_and_stops_the_server(self, figure1_payload):
        service = SolveService(workers=1, default_timeout=30)
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=30)
        client.solve(workflow=figure1_payload, gamma=2)
        ack = client.shutdown()
        assert ack["status"] == "shutting down"
        server._thread.join(timeout=30)
        assert not server._thread.is_alive()
        assert service.draining
        # Stopping again is a no-op, not an error.
        assert server.stop(drain_timeout=1)

    def test_stop_during_inflight_work_delivers_the_result(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=30)
        outcome: dict = {}

        def call() -> None:
            outcome["record"] = client.solve(
                workflow=figure1_payload, gamma=2, solver="blocker"
            )

        request_thread = threading.Thread(target=call)
        request_thread.start()
        assert blocker.started.wait(30)

        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert service.drain_started.wait(30)
        blocker.release.set()
        request_thread.join(timeout=30)
        stopper.join(timeout=30)
        assert outcome["record"]["cost"] > 0
