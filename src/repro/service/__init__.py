"""Long-lived solve service over the Secure-View engine.

Every other surface in this repository — the CLI, ``run_sweep``, a script
holding a :class:`~repro.engine.Planner` — is a one-shot process: it pays
interpreter start-up, store attachment and kernel compilation per
invocation, then throws the hot state away.  This package keeps that state
resident and serves it over HTTP/JSON (stdlib only)::

    repro serve --store .repro-store --workers 4 --port 8080
    repro submit problem.json --url http://127.0.0.1:8080

Components
----------
:class:`SolveService`
    The process core: one hot thread-safe
    :class:`~repro.engine.cache.DerivationCache` (optionally store-backed),
    a solve worker pool, an in-memory result cache, and **request
    coalescing** — concurrent identical requests (same workflow
    fingerprint, Γ, kind, solver, seed) attach to one computation and all
    receive its result, Γ-privacy certificate included.
:class:`RequestCoalescer`
    The keyed single-flight table behind the coalescing, with
    leader/follower counters (``coalesced`` in ``/metrics``).
:class:`JobManager` / :class:`MaintenanceScheduler`
    The background subsystem: ``POST /jobs/sweep`` returns a job id
    immediately and the cells run through the same pipeline
    (``GET /jobs/<id>`` reports progress and partial records,
    ``DELETE /jobs/<id>`` cancels); a scheduler thread owns store GC to a
    byte budget and job expiry.  Every other table is bounded by size
    alone.
:class:`ServiceServer`
    The threaded HTTP front for one replica: ``POST /v1/solve``,
    ``POST /v1/sweep``, ``POST /v1/jobs/sweep``, ``GET /v1/jobs[/<id>]``,
    ``DELETE /v1/jobs/<id>``, ``GET /v1/healthz``, ``GET /v1/metrics``,
    ``GET /v1/version``, ``POST /v1/shutdown`` (any other path answers the
    enveloped 404); keep-alive connections; graceful drain on stop.
:class:`FleetSupervisor`
    ``repro fleet``: N supervised ``repro serve`` replica processes on
    one shared store behind a health-aware ``/v1`` proxy front, with
    budgeted respawns and drain-aware rolling restarts.
:class:`ServiceClient`
    Stdlib client used by ``repro submit`` and scripts; keep-alive
    connections to the ``/v1`` API, envelope-aware errors.
:class:`SolveJob` / :func:`parse_solve_payload` / :class:`InstanceCache`
    The request codec; a job's ``key`` is the coalescing identity, and an
    exact byte repeat of a request body is looked up, not re-parsed.  A
    job runs through the engine's
    :class:`~repro.engine.executor.SolveRunner` — the one per-process solve
    state, shared with the sweep executor — which the service holds, and
    every execution-tier worker holds its own of.
"""

from .background import JobManager, MaintenanceScheduler, SweepJob
from .client import ServiceClient, ServiceClientError
from .coalescer import InFlight, RequestCoalescer
from .exec_tier import ProcessExecTier, TierUnavailable
from .fleet import FleetSupervisor, Replica
from .jobs import (
    JOB_STATES,
    TERMINAL_JOB_STATES,
    InstanceCache,
    ServiceError,
    ServiceTimeout,
    SolveJob,
    WorkerError,
    parse_solve_payload,
)
from .server import ServiceServer
from .service import SolveService

__all__ = [
    "FleetSupervisor",
    "InFlight",
    "InstanceCache",
    "JOB_STATES",
    "JobManager",
    "MaintenanceScheduler",
    "ProcessExecTier",
    "Replica",
    "RequestCoalescer",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceServer",
    "ServiceTimeout",
    "SolveJob",
    "SolveService",
    "SweepJob",
    "TERMINAL_JOB_STATES",
    "TierUnavailable",
    "WorkerError",
    "parse_solve_payload",
]
