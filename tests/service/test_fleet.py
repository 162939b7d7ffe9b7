"""Replica fleet: routing, supervision, rolling restart, drain ordering.

The integration tests spawn real ``repro serve`` subprocesses through
:class:`~repro.service.fleet.FleetSupervisor` (one module-scoped fleet,
reused across tests, so the interpreter start-up cost is paid once).  The
drain-ordering tests use two in-process servers instead — everything there
is sequenced through events (``Blocker``, ``drain_started``), no sleeps.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.request

import pytest

from repro.service import (
    FleetSupervisor,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    SolveService,
)
from repro.service.fleet import _merge_numeric, _prefix_job_ids
from repro.service.server import encode_json, normalize_path
from repro.workloads import figure1_workflow, workflow_to_dict


class TestHelpers:
    def test_normalize_path(self):
        assert normalize_path("/v1/solve") == "/solve"
        assert normalize_path("/v1/jobs/abc") == "/jobs/abc"
        assert normalize_path("/v1") == "/"
        assert normalize_path("/solve") is None
        assert normalize_path("/healthz") is None
        # /v1x is not the version prefix.
        assert normalize_path("/v1x/solve") is None

    def test_merge_numeric_sums_leaves_and_skips_identity(self):
        totals: dict = {}
        _merge_numeric(totals, {"a": 1, "b": {"c": 2.5}, "flag": True, "s": "x"})
        _merge_numeric(totals, {"a": 2, "b": {"c": 1.5, "d": 1}, "flag": False})
        assert totals == {"a": 3, "b": {"c": 4.0, "d": 1}}

    def test_prefix_job_ids(self):
        data = _prefix_job_ids(encode_json({"job": "abc123", "cells": 2}), "r1")
        assert json.loads(data)["job"] == "r1.abc123"
        # Bodies without a job id (or non-JSON) pass through untouched.
        assert _prefix_job_ids(b"[1, 2]", "r1") == b"[1, 2]"
        assert _prefix_job_ids(b"not json", "r1") == b"not json"


class TestDrainOrderingUnderRestart:
    """Satellite: healthz flips 503 before admission stops; in-flight
    requests complete; a client retrying on a second replica succeeds."""

    def test_drain_ordering_and_second_replica_retry(
        self, blocker, figure1_payload
    ):
        replica_a = SolveService(
            workers=2, registry=blocker.registry, default_timeout=30,
            replica_id="r0",
        )
        replica_b = SolveService(
            workers=2, registry=blocker.registry, default_timeout=30,
            replica_id="r1",
        )
        server_a = ServiceServer(replica_a, port=0).start()
        server_b = ServiceServer(replica_b, port=0).start()
        client_a = ServiceClient(server_a.url, timeout=30)
        client_b = ServiceClient(server_b.url, timeout=30)
        try:
            outcome: dict = {}

            def in_flight() -> None:
                outcome["record"] = client_a.solve(
                    workflow=figure1_payload, gamma=2, solver="blocker"
                )

            request_thread = threading.Thread(target=in_flight)
            request_thread.start()
            assert blocker.started.wait(30)

            stopper = threading.Thread(target=server_a.stop)
            stopper.start()
            assert replica_a.drain_started.wait(30)

            # 1. healthz reports 503/draining the moment the drain begins —
            #    *before* we observe any admission refusal — so a balancer
            #    polling healthz routes away first.
            probe = ServiceClient(server_a.url, timeout=30)
            with pytest.raises(ServiceClientError) as health_excinfo:
                probe.healthz()
            assert health_excinfo.value.status == 503
            assert health_excinfo.value.payload["draining"] is True
            assert health_excinfo.value.payload["replica"] == "r0"

            # 2. admission is stopped: a new request is refused with 503...
            with pytest.raises(ServiceClientError) as solve_excinfo:
                probe.solve(workflow=figure1_payload, gamma=2, solver="exact")
            assert solve_excinfo.value.status == 503
            assert solve_excinfo.value.error_type == "ServiceError"

            # 3. ...while the in-flight request is still being served: it
            #    completes once released, through the drain.
            assert not outcome
            blocker.release.set()
            request_thread.join(timeout=30)
            stopper.join(timeout=30)
            assert outcome["record"]["cost"] == 3.0

            # 4. the refused client retries against the second replica and
            #    succeeds — the fleet front automates exactly this.  (release
            #    is set, so the blocker solver passes straight through.)
            retried = client_b.solve(
                workflow=figure1_payload, gamma=2, solver="blocker"
            )
            assert retried["cost"] == 3.0
            assert client_b.healthz()["replica"] == "r1"
        finally:
            blocker.release.set()
            server_a.stop(drain_timeout=30)
            server_b.stop(drain_timeout=30)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A two-replica fleet on one store, shared across this module."""
    store = tmp_path_factory.mktemp("fleet-store")
    supervisor = FleetSupervisor(
        replicas=2,
        store=store,
        port=0,
        serve_argv=[
            "--workers", "2",
            # No in-memory result cache: repeats must read the *store's*
            # result tier, which is the cross-replica reuse under test.
            "--result-cache-size", "0",
            "--maintenance-interval", "5",
        ],
        health_interval=0.2,
        spawn_timeout=120.0,
    )
    supervisor.start()
    try:
        yield supervisor
    finally:
        supervisor.stop(drain_timeout=60)


@pytest.fixture(scope="module")
def fleet_client(fleet):
    return ServiceClient(fleet.url, timeout=60)


@pytest.fixture(scope="module")
def payload():
    return workflow_to_dict(figure1_workflow())


class TestFleetServing:
    def test_fleet_healthz_reports_both_replicas_in_rotation(
        self, fleet, fleet_client
    ):
        health = fleet_client.healthz()
        assert health["fleet"] is True
        assert health["status"] == "ok"
        assert health["in_rotation"] == 2
        assert set(health["replicas"]) == {"r0", "r1"}

    def test_fleet_version_lists_replica_versions(self, fleet_client):
        from repro import __version__

        payload = fleet_client.version()
        assert payload["api"] == "v1" and payload["fleet"] is True
        assert payload["replicas"]["r0"]["package"] == __version__
        assert payload["replicas"]["r0"]["replica"] == "r0"

    def test_identical_traffic_derives_once_fleet_wide(
        self, fleet, fleet_client, payload
    ):
        """K identical requests across replicas: one derivation, the rest
        served from the shared store's result tier."""
        k = 6
        records = [
            fleet_client.solve(workflow=payload, gamma=2, kind="set",
                               solver="exact")
            for _ in range(k)
        ]
        assert all(record["cost"] == 3.0 for record in records)
        # Every repeat after the first leader answered from the store.
        assert sum(1 for record in records if record["from_store"]) >= k - 1
        metrics = fleet_client.metrics()
        assert metrics["fleet"]["replicas"] == 2
        assert metrics["fleet"]["proxied"]["solve"] >= k
        # Round-robin routing spread the traffic over both replicas...
        per_replica_solves = [
            metrics["replicas"][rid]["requests"]["solve"] for rid in ("r0", "r1")
        ]
        assert all(count >= 1 for count in per_replica_solves)
        # ...and the store's result tier carried the reuse across them.
        assert metrics["totals"]["result_hits"]["store"] >= k - 1

    def test_jobs_are_namespaced_by_replica(self, fleet_client, payload):
        handle = fleet_client.sweep_async(
            workflows=[payload], gammas=[2], solvers=["exact"], seeds=[0, 1]
        )
        owner, _, raw = handle["job"].partition(".")
        assert owner in ("r0", "r1") and raw
        final = fleet_client.wait_job(handle["job"], timeout=60, poll=0.05)
        assert final["state"] == "done" and final["completed"] == 2
        assert final["job"] == handle["job"]
        assert handle["job"] in [job["job"] for job in fleet_client.jobs()]
        with pytest.raises(ServiceClientError) as excinfo:
            fleet_client.job("unprefixed-id")
        assert excinfo.value.status == 404

    def test_unprefixed_paths_answer_the_enveloped_404(self, fleet):
        """Only ``/v1`` routes exist, on a replica and through the front."""
        for url in (fleet.url, fleet.replicas[0].url):
            for method, path in (("GET", "/healthz"), ("POST", "/solve")):
                request = urllib.request.Request(
                    f"{url}{path}",
                    data=b"{}" if method == "POST" else None,
                    method=method,
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=30)
                assert excinfo.value.code == 404
                envelope = json.loads(excinfo.value.read())["error"]
                assert envelope == {
                    "type": "ServiceError",
                    "message": f"no such path {path!r}",
                    "status": 404,
                }

    def test_unknown_route_is_enveloped_404(self, fleet_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fleet_client.request("GET", "/no-such")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "ServiceError"

    def test_keep_alive_round_trips_through_the_front_stay_fast(
        self, fleet_client, large_payload, median_round_trip_ms
    ):
        """Same bound as a single replica: no ~40 ms stall at either hop."""
        fleet_client.healthz()
        assert median_round_trip_ms(fleet_client.healthz) < 10.0

        def solve() -> None:
            fleet_client.solve(workflow=large_payload, gamma=2, kind="set")

        solve()  # computed once; repeats are store result-tier hits
        assert median_round_trip_ms(solve) < 10.0

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_unframed_body_is_refused_and_closes_the_connection(
        self, fleet, fleet_client, length
    ):
        """A body the front cannot frame must never be read as a request."""
        with socket.create_connection((fleet.host, fleet.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\nHost: fleet\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
                b"GET /v1/healthz HTTP/1.1\r\n\r\n"
            )
            answer = b""
            while chunk := sock.recv(65536):  # until the front closes
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in head
        envelope = json.loads(body)["error"]
        assert envelope["status"] == 411 and envelope["type"] == "ServiceError"
        # The smuggled healthz line was never answered...
        assert answer.count(b"HTTP/1.1 ") == 1
        # ...and a valid request on a fresh connection is.
        assert fleet_client.healthz()["status"] == "ok"


class TestFleetSupervision:
    def test_rolling_restart_mid_traffic_loses_no_requests(
        self, fleet, payload
    ):
        pids_before = {
            entry["replica"]: entry["pid"]
            for entry in fleet.status()["replicas"]
        }
        stop_traffic = threading.Event()
        failures: list[BaseException] = []
        completed = {"count": 0}

        def drive() -> None:
            client = ServiceClient(fleet.url, timeout=60)
            seed = 0
            while not stop_traffic.is_set():
                seed += 1
                try:
                    client.solve(
                        workflow=payload, gamma=2, kind="set",
                        solver="greedy", seed=seed,
                    )
                    completed["count"] += 1
                except BaseException as exc:  # noqa: BLE001 - collected
                    failures.append(exc)
                    return

        drivers = [threading.Thread(target=drive) for _ in range(3)]
        for thread in drivers:
            thread.start()
        try:
            summary = fleet.rolling_restart(drain_timeout=60)
        finally:
            stop_traffic.set()
            for thread in drivers:
                thread.join(timeout=60)
        assert summary["restarted"] == ["r0", "r1"]
        assert summary["failed"] == []
        assert failures == [], f"requests failed during rolling restart: {failures}"
        assert completed["count"] > 0
        pids_after = {
            entry["replica"]: entry["pid"]
            for entry in fleet.status()["replicas"]
        }
        assert pids_after["r0"] != pids_before["r0"]
        assert pids_after["r1"] != pids_before["r1"]
        health = ServiceClient(fleet.url, timeout=60).healthz()
        assert health["status"] == "ok" and health["in_rotation"] == 2

    def test_dead_replica_is_respawned_within_budget(self, fleet, fleet_client):
        victim = fleet.replicas[0]
        old_pid = victim.process.pid
        restarts_before = victim.restarts
        victim.process.kill()
        victim.process.wait()
        # Condition-based wait: the supervisor's health loop respawns and
        # readmits; 30s is a hard ceiling, not a sleep.
        readmitted = threading.Event()

        def watch() -> None:
            while not readmitted.is_set():
                if (
                    victim.alive()
                    and victim.process.pid != old_pid
                    and victim.in_rotation
                ):
                    readmitted.set()
                else:
                    threading.Event().wait(0.1)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        watcher.join(timeout=30)
        assert readmitted.is_set(), "dead replica was not respawned/readmitted"
        assert victim.restarts == restarts_before + 1
        assert victim.failed is False
        # The fleet kept serving throughout.
        assert fleet_client.healthz()["in_rotation"] >= 1
