"""Threaded HTTP/JSON front for a :class:`~repro.service.service.SolveService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
threads parse JSON bodies, call the service, and serialize the answer.
Handler threads never compute — computation happens in the service's worker
pool — so slow solves occupy pool slots, not the accept loop.

Routes (v1 API)
---------------
Every endpoint is mounted under ``/v1/``, the one spelling of each route;
any path outside it answers the enveloped 404.

``GET /v1/healthz``
    Liveness: ``{"status": "ok" | "draining" | "unhealthy", "draining":
    bool, "healthy": bool, "replica": ..., ...}``.  Answers **503** once a
    drain has started, and likewise when the process execution tier's
    worker pool is dead and unrecoverable (body still included either
    way), so load balancers — including ``repro fleet`` — can stop routing
    before SIGTERM completes, or route away from a degraded replica.
``GET /v1/metrics``
    Request counts, in-flight gauge, coalescing counters, job and
    maintenance counters, replica identity, and the shared cache's
    hit/miss delta since start (see ``SolveService.metrics``).
``GET /v1/version``
    Package version, API version, replica identity and the attached
    store's on-disk format version — what a rolling upgrade checks
    before readmitting a replica.
``POST /v1/solve``
    One solve request (see :mod:`repro.service.jobs` for the body schema).
``POST /v1/sweep``
    An inline grid fanned through the solve pipeline (blocks until done).
``POST /v1/jobs/sweep``
    The same grid, asynchronously: answers 202 with a job id immediately
    (see :mod:`repro.service.background`).
``GET /v1/jobs`` / ``GET /v1/jobs/<id>``
    Job summaries / one job's state, progress counters and partial
    records.
``DELETE /v1/jobs/<id>``
    Cancel: in-flight cells finish, pending cells are dropped.
``POST /v1/shutdown``
    Ack with 202 and gracefully stop the server (drain, then exit the
    serve loop).  The CLI additionally wires SIGTERM/SIGINT to the same
    path, so ``kill -TERM`` on ``repro serve`` drains and exits 0.

Error mapping: malformed JSON or payloads → 400, unknown routes and job
ids → 404, a body without valid ``Content-Length`` framing → 411, an
oversized body → 413, request deadline passed → 504, draining → 503, a
full job table → 429, solver/domain failures → 422, anything unexpected →
500; every error body is the one envelope
``{"error": {"type": ..., "message": ..., "status": ...}}``.

Connections are keep-alive (HTTP/1.1 persistent): a client — or the fleet
front — reuses one socket across requests instead of paying a TCP
handshake each time.  Draining stays safe: once a stop begins, every
response carries ``Connection: close``, and sockets that are *idle*
between requests are shut down after the drain completes, so
``server_close()`` never waits on a parked keep-alive socket while no
in-flight response is ever cut off.

Every JSON response leaves the socket in **one write** — status line, headers
and body in one buffer — on a socket with ``TCP_NODELAY`` set.  On a
keep-alive connection a second small write would otherwise sit in
Nagle's algorithm until the client acknowledged the first, and the client
delays that ACK (~40 ms on Linux) waiting for more data: every request
would pay the stall.  The plumbing lives in one handler and one
:class:`HTTPFront` base shared with the fleet front
(:mod:`repro.service.fleet`), so both layers frame requests and responses
identically.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .jobs import ServiceError, decode_json, error_envelope, status_of
from .service import SolveService

__all__ = ["HTTPFront", "ServiceServer", "normalize_path"]

#: Refuse request bodies larger than this (a serialized workflow payload is
#: typically a few hundred KB at the arities this library targets).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The one API version this server speaks (the ``/v1`` route prefix).
API_PREFIX = "/v1"


def normalize_path(path: str) -> str | None:
    """The un-versioned route of a request path; ``None`` outside ``/v1``.

    ``/v1/solve`` → ``"/solve"``; ``/solve`` → ``None``.  Both fronts
    route through the one handler that calls this.
    """
    if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
        return path[len(API_PREFIX):] or "/"
    return None


def _scrub_nonfinite(value: Any) -> Any:
    """Replace inf/nan floats with ``None`` anywhere in a JSON-able tree."""
    import math

    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _scrub_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub_nonfinite(item) for item in value]
    return value


def encode_json(payload: Any) -> bytes:
    """Strict RFC-8259 JSON bytes (inf/nan scrubbed to null)."""
    try:
        text = json.dumps(payload, sort_keys=True, default=str, allow_nan=False)
    except ValueError:
        # Non-RFC-8259 floats (inf/nan) would break every non-Python
        # client, so scrub them to null rather than emit the Python-only
        # Infinity/NaN tokens.
        text = json.dumps(
            _scrub_nonfinite(payload), sort_keys=True, default=str, allow_nan=False
        )
    return text.encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """Request framing and responses for one :class:`HTTPFront`.

    The handler owns the wire — body framing, the ``/v1`` prefix, the
    single-write response, error envelopes, busy/idle marking for the
    drain — and the front answers ``front.dispatch(method, route, body)``.
    """

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket (see the module docstring).
    disable_nagle_algorithm = True
    #: Set on the bound subclass each :class:`HTTPFront` builds.
    front: "HTTPFront"
    quiet: bool = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def setup(self) -> None:
        super().setup()
        self.front._track(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.front._untrack(self.connection)

    def _respond(self, status: int, payload: Any) -> None:
        """Answer in one write; ``payload`` is JSON-able or encoded bytes."""
        body = payload if isinstance(payload, bytes) else encode_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self.front.closing:
            # Draining (or unframed leftovers): finish this exchange, then
            # let the socket go so server_close() never waits on a parked
            # keep-alive connection.
            self.send_header("Connection", "close")
        # end_headers() would flush the headers on their own; the body
        # joins them in the same buffer instead (see the module docstring).
        self._headers_buffer.append(b"\r\n" + body)
        try:
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _fail(self, exc: BaseException) -> None:
        status = status_of(exc)
        error_type = getattr(exc, "error_type", type(exc).__name__)
        self._respond(status, error_envelope(error_type, str(exc), status))

    def _read_body(self) -> bytes:
        """The request body, framed by ``Content-Length``.

        Every request's body is consumed, whether or not its route reads
        it: unread bytes would be parsed as the next request line on this
        keep-alive connection.  When the framing is unknown (a malformed,
        negative or oversized length, or a transfer coding this server
        does not speak) nothing can be consumed safely, so the request
        fails and the connection closes after the answer.
        """
        header = self.headers.get("Content-Length")
        if header is None and "Transfer-Encoding" not in self.headers:
            return b""  # RFC 9112 §6.3: no framing header means no body
        try:
            length = int(header)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        self.close_connection = True
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        raise ServiceError("a valid Content-Length is required", status=411)

    def _handle(self, method: str) -> None:
        busy = self.front._mark_busy(self.connection)
        try:
            body = self._read_body()
            route = normalize_path(self.path)
            if route is None:
                raise ServiceError(f"no such path {self.path!r}", status=404)
            self._respond(*self.front.dispatch(method, route, body))
        except Exception as exc:  # noqa: BLE001 - a handler must always answer
            self._fail(exc)
        finally:
            if busy:
                self.front._mark_idle(self.connection)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        self._handle("DELETE")


class _HTTPServer(ThreadingHTTPServer):
    # socketserver's listen backlog of 5 overflows when a burst of clients
    # connects at once (the fleet front opens one connection per proxied
    # request); the kernel then drops the SYN and the client retries only
    # after its 1 s retransmission timeout.
    request_queue_size = socket.SOMAXCONN
    # Non-daemon handler threads: server_close() joins them, so a graceful
    # stop only returns after every drained request's response has actually
    # been written — drain must never drop the very response it waited for.
    daemon_threads = False


class HTTPFront:
    """A keep-alive HTTP/JSON front: bound socket, serve loop, connections.

    Shared by :class:`ServiceServer` and the fleet front
    (:class:`~repro.service.fleet.FleetSupervisor`).  A subclass answers
    requests in ``dispatch(method, route, body) -> (status, payload)`` —
    ``route`` un-versioned, ``body`` the raw request bytes, ``payload``
    JSON-able or already-encoded bytes — and implements ``stop``, which
    sets :attr:`closing` and calls :meth:`_close_idle_connections` once
    in-flight work has drained.

    The constructor binds the socket, so callers can read the ephemeral
    ``port`` before serving.
    """

    def __init__(self, host: str, port: int, quiet: bool, server_version: str) -> None:
        # A socket timeout bounds idle connections so joining handler
        # threads on close can never hang on a client that connected but
        # sent nothing.
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"front": self, "quiet": quiet, "timeout": 30,
             "server_version": server_version},
        )
        self.httpd = _HTTPServer((host, port), handler)
        self._closing = threading.Event()
        # Keep-alive sockets and whether each is mid-request.  Guarded by
        # one lock so "mark busy" and "close every idle socket" are atomic
        # with respect to each other: a request that marked busy is never
        # closed under it, a parked socket is closed immediately.
        self._conn_lock = threading.Lock()
        self._connections: dict[socket.socket, bool] = {}
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closing(self) -> bool:
        """Whether a stop began: every response now says ``Connection: close``."""
        return self._closing.is_set()

    # -- connection tracking (keep-alive vs drain) -------------------------------
    def _track(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections[conn] = False

    def _untrack(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.pop(conn, None)

    def _mark_busy(self, conn: socket.socket) -> bool:
        with self._conn_lock:
            if conn in self._connections:
                self._connections[conn] = True
                return True
        return False

    def _mark_idle(self, conn: socket.socket) -> None:
        with self._conn_lock:
            if conn in self._connections:
                self._connections[conn] = False
                # A handler that goes idle after the close-idle sweep already
                # ran (it was busy writing its response) would otherwise park
                # on the next keep-alive read and stall server_close().
                if self.closing:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    def _close_idle_connections(self) -> None:
        """Shut down sockets parked between keep-alive requests.

        Runs after the drain, so anything still marked busy is writing its
        (already computed) response and is left alone — it closes itself
        via the ``Connection: close`` every response carries by then.
        """
        with self._conn_lock:
            for conn, busy in list(self._connections.items()):
                if busy:
                    continue
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already dying; its handler will untrack it

    # -- serving ----------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until ``stop``."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()

    def stop_async(self) -> None:
        """Trigger ``stop`` without blocking the calling (handler) thread."""
        threading.Thread(target=self.stop, name="repro-stop", daemon=True).start()


def _job_id(route: str) -> str | None:
    """The ``<id>`` of a ``/jobs/<id>`` route (``None`` for anything else)."""
    if not route.startswith("/jobs/"):
        return None
    job_id = route[len("/jobs/"):]
    return job_id if job_id and "/" not in job_id else None


class ServiceServer(HTTPFront):
    """Bind a :class:`SolveService` to a host/port and run the serve loop.

    :meth:`serve_forever` blocks until :meth:`stop` is called from another
    thread (or :meth:`start` runs the loop on a daemon thread for
    in-process use — tests, benchmarks, the demo).
    """

    def __init__(
        self,
        service: SolveService,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
    ) -> None:
        self.service = service
        super().__init__(host, port, quiet, server_version="repro-serve")
        self._stopped = threading.Event()

    def dispatch(self, method: str, route: str, body: bytes) -> tuple[int, Any]:
        """Answer one request; ``(status, JSON-able payload)``."""
        service = self.service
        job_id = _job_id(route)
        if method == "GET":
            if route == "/healthz":
                payload = service.healthz()
                # 503 while draining or with a dead execution tier: body
                # still answers, but balancers and pollers see "stop
                # routing here" at the status level.
                unavailable = payload["draining"] or not payload.get("healthy", True)
                return (503 if unavailable else 200), payload
            if route == "/metrics":
                return 200, service.metrics()
            if route == "/version":
                return 200, service.version()
            if route == "/jobs":
                return 200, {"jobs": service.jobs.list_jobs()}
            if job_id:
                return 200, service.jobs.status(job_id)
        elif method == "POST":
            if route == "/solve":
                # Raw bytes: an exact repeat skips decoding and parsing.
                return 200, service.solve_payload(body)
            if route == "/sweep":
                return 200, service.sweep_payload(decode_json(body))
            if route == "/jobs/sweep":
                # 202: accepted, not done — the body is the job handle.
                return 202, service.jobs.submit(decode_json(body))
            if route == "/shutdown":
                self.stop_async()
                return 202, {"status": "shutting down"}
        elif method == "DELETE" and job_id:
            return 200, service.jobs.cancel(job_id)
        return 404, error_envelope("ServiceError", f"no such path {route!r}", 404)

    def start(self) -> "ServiceServer":
        """Run the serve loop on a daemon thread (in-process embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain_timeout: float | None = None) -> bool:
        """Drain the service, stop the accept loop, close the socket.

        Safe to call from any thread (including a signal handler's helper
        thread) and idempotent.  Returns whether the drain completed within
        ``drain_timeout``.
        """
        if self._stopped.is_set():
            return True
        self._stopped.set()
        # From here on every response says ``Connection: close``; the
        # drain below waits for in-flight work, then parked keep-alive
        # sockets are shut down so server_close() joins promptly.
        self._closing.set()
        drained = self.service.drain(drain_timeout)
        self._close_idle_connections()
        self.httpd.shutdown()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)
        return drained
