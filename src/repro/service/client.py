"""Thin stdlib client for the solve service.

:class:`ServiceClient` wraps ``http.client`` — no dependencies, usable from
any script or from ``repro submit``::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    record = client.solve(workflow, gamma=2, kind="set")
    print(record["cost"], record["hidden_attributes"], record["verified"])
    print(client.metrics()["coalesced"])

``solve`` accepts a live :class:`~repro.core.workflow.Workflow` /
:class:`~repro.core.secure_view.SecureViewProblem` (serialized on the way
out) or an already-serialized payload mapping.  HTTP-level failures raise
:class:`ServiceClientError` carrying the status code, the error ``type``
from the server's envelope, and the full payload, so callers can
distinguish a malformed request (400) from a timeout (504) from a draining
server (503).

The client speaks the versioned ``/v1`` API over **keep-alive**
connections: one persistent connection per calling thread, reused across
requests (a stale socket the server closed between requests is retried
once on a fresh one), instead of a TCP handshake per call.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Callable, Mapping

__all__ = ["ServiceClient", "ServiceClientError"]

#: Job states after which polling can stop (mirrors ``JOB_STATES``).
_TERMINAL_JOB_STATES = ("done", "failed", "cancelled")

#: The API prefix every route lives under.
_API_PREFIX = "/v1"

#: Connection failures that mean "the server closed our parked keep-alive
#: socket": safe to retry exactly once on a fresh connection, because no
#: response byte arrived so the server cannot have acted on the request.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.CannotSendRequest,
    BrokenPipeError,
    ConnectionResetError,
)


class ServiceClientError(Exception):
    """An HTTP error response from the service (status + server payload)."""

    def __init__(
        self,
        status: int,
        message: str,
        payload: Mapping[str, Any] | None = None,
        error_type: str | None = None,
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = dict(payload or {})
        #: The server-side exception class from the v1 error envelope
        #: (``None`` for transport failures).
        self.error_type = error_type


def _error_details(payload: Any, fallback: str) -> tuple[str, str | None]:
    """``(message, type)`` from an error envelope body."""
    error = payload.get("error") if isinstance(payload, Mapping) else None
    if isinstance(error, Mapping):
        return str(error.get("message", fallback)), error.get("type")
    return fallback, None


def _instance_payload(instance: Any) -> Mapping[str, Any]:
    """Serialize a live workflow/problem; pass mappings through untouched."""
    if isinstance(instance, Mapping):
        return instance
    from ..core.secure_view import SecureViewProblem
    from ..core.workflow import Workflow
    from ..workloads.serialization import problem_to_dict, workflow_to_dict

    if isinstance(instance, Workflow):
        return workflow_to_dict(instance)
    if isinstance(instance, SecureViewProblem):
        return problem_to_dict(instance)
    raise TypeError(f"cannot serialize {type(instance).__name__} for the service")


class ServiceClient:
    """HTTP client for one service endpoint (``http://host:port``)."""

    def __init__(self, url: str, timeout: float = 300.0) -> None:
        self.url = url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.url)
        if parsed.hostname is None:
            raise ValueError(f"cannot parse service url {url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self.timeout = timeout
        # One keep-alive connection per calling thread (http.client
        # connections are not thread-safe to share).
        self._local = threading.local()

    # -- transport --------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's keep-alive connection (idempotent)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def request(self, method: str, path: str, payload: Any = None) -> dict[str, Any]:
        """One JSON round trip; raises :class:`ServiceClientError` on 4xx/5xx.

        ``path`` is the un-versioned route (``"/solve"``), sent under
        ``/v1``.  It runs on the thread's keep-alive connection.  A server
        is free to close a parked keep-alive socket at any time (draining,
        idle timeout); when the failure proves no response byte arrived,
        the request is replayed once on a fresh connection.
        """
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, default=str).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            for attempt in (0, 1):
                conn = self._connection()
                fresh = conn.sock is None
                try:
                    conn.request(method, _API_PREFIX + path, body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                except _STALE_CONNECTION_ERRORS:
                    self.close()
                    if fresh or attempt:
                        raise
                    continue  # stale reused socket: replay once
                if response.will_close:
                    self.close()
                break
        except (TimeoutError, OSError, http.client.HTTPException) as exc:
            # Socket-level failures (refused, reset, read timeout) fold
            # into the same controlled error so callers never see a raw
            # socket traceback.
            self.close()
            raise ServiceClientError(
                0,
                f"request to {self.url} failed: {str(exc) or type(exc).__name__}",
            ) from exc
        try:
            parsed = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            parsed = {}
        if response.status >= 400:
            message, error_type = _error_details(parsed, response.reason)
            raise ServiceClientError(
                response.status, message, parsed, error_type=error_type
            )
        return parsed

    # -- endpoints --------------------------------------------------------------
    def solve(
        self,
        workflow: Any = None,
        problem: Any = None,
        *,
        gamma: int | None = None,
        kind: str | None = None,
        solver: str = "auto",
        seed: int | None = None,
        costs: Mapping[str, float] | None = None,
        timeout: float | None = None,
        label: str | None = None,
    ) -> dict[str, Any]:
        """Solve one instance on the server; the solve record."""
        if (workflow is None) == (problem is None):
            raise ValueError("pass exactly one of workflow= or problem=")
        body: dict[str, Any] = {"solver": solver, "seed": seed}
        if workflow is not None:
            body["workflow"] = _instance_payload(workflow)
            body["gamma"] = gamma
            body["kind"] = kind if kind is not None else "set"
        else:
            body["problem"] = _instance_payload(problem)
        if costs is not None:
            body["costs"] = dict(costs)
        if timeout is not None:
            body["timeout"] = timeout
        if label is not None:
            body["label"] = label
        return self.request("POST", "/solve", body)

    def sweep(
        self,
        *,
        workflows: tuple | list = (),
        problems: tuple | list = (),
        gammas: tuple | list = (2,),
        kinds: tuple | list = ("set",),
        solvers: tuple | list = ("auto",),
        seeds: tuple | list = (0,),
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Run an inline grid on the server; the sweep report."""
        body = self._grid_body(
            workflows, problems, gammas, kinds, solvers, seeds, timeout
        )
        return self.request("POST", "/sweep", body)

    def _grid_body(
        self,
        workflows: tuple | list,
        problems: tuple | list,
        gammas: tuple | list,
        kinds: tuple | list,
        solvers: tuple | list,
        seeds: tuple | list,
        timeout: float | None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "workflows": [_instance_payload(w) for w in workflows],
            "problems": [_instance_payload(p) for p in problems],
            "gammas": list(gammas),
            "kinds": list(kinds),
            "solvers": list(solvers),
            "seeds": list(seeds),
        }
        if timeout is not None:
            body["timeout"] = timeout
        return body

    # -- async jobs --------------------------------------------------------------
    def sweep_async(
        self,
        *,
        workflows: tuple | list = (),
        problems: tuple | list = (),
        gammas: tuple | list = (2,),
        kinds: tuple | list = ("set",),
        solvers: tuple | list = ("auto",),
        seeds: tuple | list = (0,),
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Submit an inline grid as an async job; ``{"job": id, ...}``.

        Returns immediately; poll with :meth:`job` or block with
        :meth:`wait_job`.
        """
        body = self._grid_body(
            workflows, problems, gammas, kinds, solvers, seeds, timeout
        )
        return self.request("POST", "/jobs/sweep", body)

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /jobs/<id>``: state, progress counters, partial records."""
        return self.request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /jobs``: summaries of every tracked job."""
        return self.request("GET", "/jobs")["jobs"]

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        """``DELETE /jobs/<id>``: stop pending cells; the job summary."""
        return self.request("DELETE", f"/jobs/{job_id}")

    def wait_job(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
        on_progress: "Callable[[dict[str, Any]], None] | None" = None,
    ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state; its final status.

        ``on_progress`` (if given) sees every polled snapshot — partial
        records included — which is how ``repro submit --watch`` renders a
        live progress line.  Raises :class:`ServiceClientError` (status 0)
        if ``timeout`` elapses first; the job keeps running server-side.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if on_progress is not None:
                on_progress(status)
            if status.get("state") in _TERMINAL_JOB_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceClientError(
                    0,
                    f"job {job_id} still {status.get('state')!r} "
                    f"after {timeout}s (it keeps running server-side)",
                    status,
                )
            time.sleep(poll)

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness, drain flag, exec-tier health."""
        return self.request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """``GET /metrics``: counters, cache deltas, replica identity."""
        return self.request("GET", "/metrics")

    def version(self) -> dict[str, Any]:
        """``GET /v1/version``: package + API version, store formats."""
        return self.request("GET", "/version")

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit (202 acknowledged)."""
        return self.request("POST", "/shutdown", {})
