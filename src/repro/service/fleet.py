"""A replica fleet on one store, behind one ``/v1`` front.

``repro fleet --replicas N --store DIR --port P`` spawns N ``repro serve``
processes that share a single derivation-store directory, and runs a
stdlib HTTP front that proxies the versioned ``/v1`` API across them:

* **health-aware routing** — requests round-robin over the replicas whose
  ``/v1/healthz`` answers 200; a replica that reports 503 (draining, or a
  dead execution tier) leaves rotation until it recovers, and a request
  that lands on a replica mid-drain is transparently retried on the next
  one, so rolling restarts lose zero requests;
* **supervision** — a replica process that dies unexpectedly is respawned
  up to a per-replica restart budget (``--restart-budget``); beyond that
  it is marked failed and the fleet keeps serving degraded;
* **one shared store** — every replica attaches the same store, so a
  rolling restart's successor serves its predecessor's results, packs and
  requirement lists from disk;
* **rolling restarts** — ``repro fleet restart`` (or SIGHUP, or ``POST
  /v1/fleet/restart``) cycles one replica at a time: leave rotation →
  drain (its in-flight requests complete) → wait for exit → respawn →
  wait healthy → readmit — then the next replica.

The front answers the fleet-level API itself:

``GET /v1/healthz``
    Fleet liveness: 503 while stopping or with zero replicas in rotation;
    the body lists per-replica state, rotation membership and respawns.
``GET /v1/metrics``
    ``totals`` (every numeric counter summed across replicas — one number
    per counter for "did the fleet reuse work"), ``replicas`` (each
    replica's full ``/v1/metrics``) and ``fleet`` (routing counters,
    failovers, respawns, rolling restarts).
``GET /v1/version`` / ``GET /v1/fleet``
    Package + API version with per-replica versions / supervision status.
``POST /v1/fleet/restart``
    Ack 202 and run a rolling restart in the background.
``POST /v1/shutdown``
    Ack 202, drain every replica, stop the front (SIGTERM does the same).

Everything else under ``/v1/`` — ``/solve``, ``/sweep``, ``/jobs/...`` —
is proxied.  Jobs are replica-local state, so the fleet namespaces their
ids: a handle from ``POST /v1/jobs/sweep`` comes back as ``r2.<id>`` and
later ``GET /v1/jobs/r2.<id>`` routes to the owning replica; ``GET
/v1/jobs`` fans out and merges.  The front is the same
:class:`~repro.service.server.HTTPFront` a replica runs, so request
framing, keep-alive, one-write responses, error envelopes and the
enveloped 404 for any path outside ``/v1`` behave exactly like a single
replica.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Sequence

from .jobs import error_envelope
from .server import HTTPFront, encode_json

__all__ = ["FleetSupervisor", "Replica"]

#: ``repro serve`` announces its (possibly ephemeral) address with this
#: flushed banner line; the supervisor parses it to learn each replica's
#: port.
_BANNER = re.compile(r"listening on (http://[^\s]+)")


class Replica:
    """Supervision state for one ``repro serve`` process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.replica_id = f"r{index}"
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.host: str | None = None
        self.port: int | None = None
        #: Set once the banner announced this generation's address.
        self.url_ready = threading.Event()
        #: Whether the router may send traffic here (health loop + restart
        #: logic own it).
        self.in_rotation = False
        #: False while a rolling restart owns the replica, so the health
        #: loop neither readmits nor respawns it mid-cycle.
        self.admittable = True
        #: True while an exit is intentional (restart/shutdown) — the
        #: supervisor must not burn restart budget on it.
        self.expected_exit = False
        #: Unexpected-death respawns performed (bounded by the budget).
        self.restarts = 0
        self.spawned_at: float | None = None
        #: Budget exhausted: left down, fleet serves degraded.
        self.failed = False

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def state(self) -> str:
        if self.failed:
            return "failed"
        if not self.alive():
            return "down"
        if not self.url_ready.is_set():
            return "starting"
        return "up" if self.in_rotation else "out-of-rotation"


class FleetSupervisor(HTTPFront):
    """Spawn, supervise and front N ``repro serve`` replicas on one store.

    Parameters
    ----------
    replicas:
        Replica process count.
    store:
        Store directory every replica attaches (the shared result/module
        tiers are what make cross-replica reuse work); ``None`` runs
        store-less replicas (each a private cache — routing still works,
        reuse does not cross processes).
    host / port:
        Front bind address (``port=0`` picks a free port).
    serve_argv:
        Extra ``repro serve`` arguments appended to every replica's
        command line (``["--workers", "2", "--exec", "processes"]`` …) —
        and to every respawn, so a restarted replica comes back with
        identical configuration.
    restart_budget:
        Unexpected-death respawns allowed *per replica* before it is
        marked failed.
    health_interval:
        Seconds between supervision passes (liveness + healthz probes).
    request_timeout:
        Per-proxied-request deadline toward a replica.
    spawn_timeout:
        Seconds a (re)spawned replica gets to announce its port and
        answer healthz 200.
    """

    def __init__(
        self,
        replicas: int = 2,
        store: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        serve_argv: Sequence[str] = (),
        restart_budget: int = 3,
        health_interval: float = 0.5,
        request_timeout: float = 330.0,
        spawn_timeout: float = 60.0,
        quiet: bool = True,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.store = os.fspath(store) if store is not None else None
        self.serve_argv = list(serve_argv)
        self.restart_budget = restart_budget
        self.health_interval = health_interval
        self.request_timeout = request_timeout
        self.spawn_timeout = spawn_timeout
        self.quiet = quiet
        self.replicas = [Replica(index) for index in range(replicas)]
        super().__init__(host, port, quiet, server_version="repro-fleet")
        self._lock = threading.Lock()
        self._restart_lock = threading.Lock()
        self._stopped = threading.Event()
        self._health_thread: threading.Thread | None = None
        self._rr = 0
        self._started_monotonic = time.monotonic()
        self.proxied = {"solve": 0, "sweep": 0, "jobs": 0}
        self.failovers = 0
        self.rolling_restarts = 0

    # -- replica lifecycle -------------------------------------------------------
    def _spawn_command(self, replica: Replica) -> list[str]:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--replica-id", replica.replica_id,
        ]
        if self.store is not None:
            command += ["--store", self.store]
        command += self.serve_argv
        return command

    def _spawn(self, replica: Replica) -> None:
        replica.url_ready.clear()
        replica.url = replica.host = replica.port = None
        # The replica imports `repro` from the same tree this supervisor
        # runs from, wherever the operator's PYTHONPATH points.
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        replica.process = subprocess.Popen(
            self._spawn_command(replica),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        replica.spawned_at = time.monotonic()
        threading.Thread(
            target=self._pump_output,
            args=(replica, replica.process),
            name=f"repro-fleet-{replica.replica_id}-out",
            daemon=True,
        ).start()

    def _pump_output(self, replica: Replica, process: subprocess.Popen) -> None:
        """Parse the serve banner for the port; keep the pipe drained."""
        stdout = process.stdout
        if stdout is None:
            return
        for line in stdout:
            if not replica.url_ready.is_set():
                match = _BANNER.search(line)
                if match is not None:
                    parsed = urllib.parse.urlsplit(match.group(1))
                    replica.url = match.group(1)
                    replica.host = parsed.hostname
                    replica.port = parsed.port
                    replica.url_ready.set()
            if not self.quiet:
                print(f"[{replica.replica_id}] {line}", end="", flush=True)

    def _await_ready(self, replica: Replica, deadline: float) -> bool:
        """Banner parsed and healthz 200 before ``deadline``; admit or not."""
        if not replica.url_ready.wait(max(0.0, deadline - time.monotonic())):
            return False
        while time.monotonic() < deadline:
            if not replica.alive():
                return False
            try:
                status, _ = self._forward(replica, "GET", "/v1/healthz", b"")
            except (OSError, http.client.HTTPException):
                status = 0
            if status == 200:
                return True
            time.sleep(0.05)
        return False

    # -- serving -----------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Spawn every replica, wait for health, start front + supervisor."""
        for replica in self.replicas:
            self._spawn(replica)
        deadline = time.monotonic() + self.spawn_timeout
        failed = [
            replica.replica_id
            for replica in self.replicas
            if not self._await_ready(replica, deadline)
        ]
        if failed:
            self.stop(drain_timeout=5.0)
            raise RuntimeError(
                f"replica(s) {', '.join(failed)} failed to become healthy "
                f"within {self.spawn_timeout}s"
            )
        for replica in self.replicas:
            replica.in_rotation = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-fleet", daemon=True
        )
        self._thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-fleet-health", daemon=True
        )
        self._health_thread.start()
        return self

    def _health_loop(self) -> None:
        """Respawn dead replicas (budgeted); keep rotation = the healthy set."""
        while not self._closing.wait(self.health_interval):
            for replica in self.replicas:
                if not replica.admittable or self._closing.is_set():
                    continue
                if not replica.alive():
                    replica.in_rotation = False
                    if replica.expected_exit or replica.failed:
                        continue
                    if replica.restarts >= self.restart_budget:
                        replica.failed = True
                        continue
                    replica.restarts += 1
                    self._spawn(replica)
                    continue
                if not replica.url_ready.is_set():
                    continue
                try:
                    status, _ = self._forward(
                        replica, "GET", "/v1/healthz", b"",
                        timeout=min(5.0, self.request_timeout),
                    )
                except (OSError, http.client.HTTPException):
                    status = 0
                replica.in_rotation = status == 200

    # -- routing -----------------------------------------------------------------
    def _routing_order(self) -> list[Replica]:
        """In-rotation replicas, rotated round-robin per call."""
        with self._lock:
            candidates = [
                replica
                for replica in self.replicas
                if replica.in_rotation and replica.url_ready.is_set()
            ]
            if not candidates:
                return []
            self._rr = (self._rr + 1) % len(candidates)
            offset = self._rr
        return candidates[offset:] + candidates[:offset]

    def _forward(
        self,
        replica: Replica,
        method: str,
        path: str,
        body: bytes,
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One raw exchange with a replica; (status, body bytes)."""
        connection = http.client.HTTPConnection(
            replica.host, replica.port, timeout=timeout or self.request_timeout
        )
        try:
            headers = {"Accept": "application/json"}
            if body:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body or None, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _proxy(
        self, method: str, route: str, body: bytes
    ) -> tuple[Replica | None, int, bytes]:
        """Health-aware proxying with failover.

        Connection-level failures (the replica died mid-flight) and 503s
        (it started draining after routing chose it) both retry on the
        next in-rotation replica — the seam that makes a rolling restart
        invisible to clients.  The rotation is re-read before each try:
        a request that picked the last replica of an old rotation (the one
        a rolling restart drains next) fails over to the successor the
        restart readmitted meanwhile.  Each replica is tried at most once.
        """
        last: tuple[int, bytes] | None = None
        tried: list[Replica] = []
        while True:
            untried = [r for r in self._routing_order() if r not in tried]
            if not untried:
                break
            replica = untried[0]
            tried.append(replica)
            try:
                status, data = self._forward(replica, method, "/v1" + route, body)
            except (OSError, http.client.HTTPException):
                with self._lock:
                    self.failovers += 1
                replica.in_rotation = False  # health loop readmits on recovery
                continue
            if status == 503:
                with self._lock:
                    self.failovers += 1
                last = (status, data)
                continue
            return replica, status, data
        if last is not None:
            return None, last[0], last[1]
        return None, 503, encode_json(
            error_envelope("ServiceError", "no replica in rotation", 503)
        )

    # -- the fleet API -----------------------------------------------------------
    def dispatch(self, method: str, route: str, body: bytes) -> tuple[int, bytes]:
        """Answer one front request; ``(status, body bytes)``."""
        if method == "GET":
            if route == "/healthz":
                return self._fleet_healthz()
            if route == "/metrics":
                return self._fleet_metrics()
            if route == "/version":
                return self._fleet_version()
            if route == "/fleet":
                return 200, encode_json(self.status())
            if route == "/jobs":
                return self._list_jobs()
            if route.startswith("/jobs/"):
                return self._job_route("GET", route)
        elif method == "POST":
            if route == "/solve":
                with self._lock:
                    self.proxied["solve"] += 1
                _, status, data = self._proxy("POST", route, body)
                return status, data
            if route == "/sweep":
                with self._lock:
                    self.proxied["sweep"] += 1
                _, status, data = self._proxy("POST", route, body)
                return status, data
            if route == "/jobs/sweep":
                return self._submit_job(body)
            if route == "/fleet/restart":
                threading.Thread(
                    target=self.rolling_restart,
                    name="repro-fleet-restart",
                    daemon=True,
                ).start()
                return 202, encode_json({"status": "rolling restart started"})
            if route == "/shutdown":
                self.stop_async()
                return 202, encode_json({"status": "shutting down"})
        elif method == "DELETE":
            if route.startswith("/jobs/"):
                return self._job_route("DELETE", route)
        return 404, encode_json(
            error_envelope("ServiceError", f"no such path {route!r}", 404)
        )

    def _fleet_healthz(self) -> tuple[int, bytes]:
        draining = self._closing.is_set()
        states = {
            replica.replica_id: {
                "state": replica.state(),
                "in_rotation": replica.in_rotation,
                "restarts": replica.restarts,
                "url": replica.url,
            }
            for replica in self.replicas
        }
        in_rotation = sum(1 for replica in self.replicas if replica.in_rotation)
        if draining:
            status = "draining"
        elif in_rotation == len(self.replicas):
            status = "ok"
        elif in_rotation:
            status = "degraded"
        else:
            status = "unhealthy"
        payload = {
            "status": status,
            "fleet": True,
            "draining": draining,
            "healthy": in_rotation > 0,
            "in_rotation": in_rotation,
            "replica_count": len(self.replicas),
            "replicas": states,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
        }
        unavailable = draining or in_rotation == 0
        return (503 if unavailable else 200), encode_json(payload)

    def _fleet_metrics(self) -> tuple[int, bytes]:
        per_replica: dict[str, Any] = {}
        totals: dict[str, Any] = {}
        for replica in self.replicas:
            if not (replica.alive() and replica.url_ready.is_set()):
                continue
            try:
                status, data = self._forward(replica, "GET", "/v1/metrics", b"")
            except (OSError, http.client.HTTPException):
                continue
            if status != 200:
                continue
            try:
                metrics = json.loads(data)
            except ValueError:
                continue
            per_replica[replica.replica_id] = metrics
            _merge_numeric(totals, metrics)
        with self._lock:
            fleet_block = {
                "replicas": len(self.replicas),
                "in_rotation": sum(
                    1 for replica in self.replicas if replica.in_rotation
                ),
                "proxied": dict(self.proxied),
                "failovers": self.failovers,
                "respawns": sum(replica.restarts for replica in self.replicas),
                "rolling_restarts": self.rolling_restarts,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
            }
        return 200, encode_json(
            {"fleet": fleet_block, "totals": totals, "replicas": per_replica}
        )

    def _fleet_version(self) -> tuple[int, bytes]:
        from .. import __version__

        versions: dict[str, Any] = {}
        for replica in self.replicas:
            if not (replica.alive() and replica.url_ready.is_set()):
                versions[replica.replica_id] = None
                continue
            try:
                status, data = self._forward(replica, "GET", "/v1/version", b"")
                versions[replica.replica_id] = (
                    json.loads(data) if status == 200 else None
                )
            except (OSError, http.client.HTTPException, ValueError):
                versions[replica.replica_id] = None
        return 200, encode_json(
            {
                "package": __version__,
                "api": "v1",
                "fleet": True,
                "replicas": versions,
            }
        )

    def status(self) -> dict[str, Any]:
        """Supervision snapshot (``GET /v1/fleet``)."""
        return {
            "url": self.url,
            "store": self.store,
            "restart_budget": self.restart_budget,
            "rolling_restarts": self.rolling_restarts,
            "stopping": self._closing.is_set(),
            "replicas": [
                {
                    "replica": replica.replica_id,
                    "state": replica.state(),
                    "in_rotation": replica.in_rotation,
                    "restarts": replica.restarts,
                    "pid": replica.process.pid if replica.process else None,
                    "url": replica.url,
                }
                for replica in self.replicas
            ],
        }

    # -- job namespacing ---------------------------------------------------------
    def _submit_job(self, body: bytes) -> tuple[int, bytes]:
        with self._lock:
            self.proxied["jobs"] += 1
        replica, status, data = self._proxy("POST", "/jobs/sweep", body)
        if replica is None or status != 202:
            return status, data
        return status, _prefix_job_ids(data, replica.replica_id)

    def _job_route(self, method: str, route: str) -> tuple[int, bytes]:
        with self._lock:
            self.proxied["jobs"] += 1
        reference = route[len("/jobs/"):]
        owner_id, sep, raw_id = reference.partition(".")
        replica = next(
            (r for r in self.replicas if r.replica_id == owner_id), None
        ) if sep else None
        if replica is None or not raw_id:
            return 404, encode_json(error_envelope(
                "ServiceError",
                f"no such job {reference!r} (fleet job ids are "
                "'<replica>.<id>')",
                404,
            ))
        if not (replica.alive() and replica.url_ready.is_set()):
            return 404, encode_json(error_envelope(
                "ServiceError",
                f"job {reference!r}: replica {owner_id} is gone "
                "(jobs are replica-local and do not survive restarts)",
                404,
            ))
        try:
            status, data = self._forward(
                replica, method, f"/v1/jobs/{raw_id}", b""
            )
        except (OSError, http.client.HTTPException):
            return 503, encode_json(error_envelope(
                "ServiceError", f"replica {owner_id} unreachable", 503
            ))
        return status, _prefix_job_ids(data, replica.replica_id)

    def _list_jobs(self) -> tuple[int, bytes]:
        with self._lock:
            self.proxied["jobs"] += 1
        merged: list[Any] = []
        for replica in self.replicas:
            if not (replica.alive() and replica.url_ready.is_set()):
                continue
            try:
                status, data = self._forward(replica, "GET", "/v1/jobs", b"")
            except (OSError, http.client.HTTPException):
                continue
            if status != 200:
                continue
            try:
                jobs = json.loads(data).get("jobs", [])
            except ValueError:
                continue
            for job in jobs:
                if isinstance(job, dict) and "job" in job:
                    job["job"] = f"{replica.replica_id}.{job['job']}"
                merged.append(job)
        return 200, encode_json({"jobs": merged})

    # -- rolling restart ---------------------------------------------------------
    def rolling_restart(self, drain_timeout: float = 60.0) -> dict[str, Any]:
        """Cycle every replica, one at a time, losing no requests.

        Per replica: leave rotation (the router stops sending work) →
        POST its ``/v1/shutdown`` (the replica's own drain completes
        in-flight responses) → wait for exit → respawn with the identical
        command line → wait for healthz 200 → readmit.  Serialized against
        concurrent restart requests; a fleet mid-stop skips the remaining
        replicas.
        """
        with self._restart_lock:
            restarted: list[str] = []
            failed: list[str] = []
            for replica in self.replicas:
                if self._closing.is_set():
                    break
                if self._restart_one(replica, drain_timeout):
                    restarted.append(replica.replica_id)
                else:
                    failed.append(replica.replica_id)
            with self._lock:
                self.rolling_restarts += 1
        return {"restarted": restarted, "failed": failed}

    def _restart_one(self, replica: Replica, drain_timeout: float) -> bool:
        replica.admittable = False
        replica.in_rotation = False
        replica.expected_exit = True
        try:
            process = replica.process
            if process is not None and process.poll() is None:
                if replica.url_ready.is_set():
                    try:
                        self._forward(replica, "POST", "/v1/shutdown", b"{}")
                    except (OSError, http.client.HTTPException):
                        pass  # already dying — wait below either way
                try:
                    process.wait(timeout=drain_timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            self._spawn(replica)
            ready = self._await_ready(
                replica, time.monotonic() + self.spawn_timeout
            )
            replica.failed = not ready
            replica.in_rotation = ready
            return ready
        finally:
            replica.expected_exit = False
            replica.admittable = True

    # -- shutdown ----------------------------------------------------------------
    def stop(self, drain_timeout: float | None = None) -> bool:
        """Drain every replica, then stop the front.  Idempotent.

        The stopping flag flips first (fleet healthz answers 503, every
        front response says ``Connection: close``), each replica gets a
        ``/v1/shutdown`` and is waited on — their drains complete any
        requests the front still has in flight — and only then does the
        front's accept loop stop and join its handler threads.
        """
        if self._stopped.is_set():
            return True
        self._stopped.set()
        self._closing.set()
        per_replica_timeout = drain_timeout if drain_timeout is not None else 60.0

        def _stop_replica(replica: Replica) -> None:
            replica.in_rotation = False
            replica.expected_exit = True
            process = replica.process
            if process is None or process.poll() is not None:
                return
            if replica.url_ready.is_set():
                try:
                    self._forward(replica, "POST", "/v1/shutdown", b"{}")
                except (OSError, http.client.HTTPException):
                    pass
            try:
                process.wait(timeout=per_replica_timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

        stoppers = [
            threading.Thread(target=_stop_replica, args=(replica,), daemon=True)
            for replica in self.replicas
        ]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join()
        drained = all(
            replica.process is None or replica.process.returncode == 0
            for replica in self.replicas
        )
        self._close_idle_connections()
        self.httpd.shutdown()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        return drained


def _prefix_job_ids(data: bytes, replica_id: str) -> bytes:
    """Namespace a replica-local ``"job"`` id into the fleet's id space."""
    try:
        payload = json.loads(data)
    except ValueError:
        return data
    if isinstance(payload, dict) and "job" in payload:
        payload["job"] = f"{replica_id}.{payload['job']}"
        return encode_json(payload)
    return data


def _merge_numeric(total: dict[str, Any], block: Any) -> dict[str, Any]:
    """Sum every numeric leaf of ``block`` into ``total`` (recursively).

    Booleans and strings are identity, not quantity, and are skipped —
    what remains (request counts, cache hits, result-tier hits …) adds
    meaningfully across replicas.
    """
    if not isinstance(block, dict):
        return total
    for key, value in block.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            current = total.get(key, 0)
            if isinstance(current, (int, float)) and not isinstance(current, bool):
                total[key] = current + value
        elif isinstance(value, dict):
            nested = total.setdefault(key, {})
            if isinstance(nested, dict):
                _merge_numeric(nested, value)
    return total
