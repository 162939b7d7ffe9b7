"""Request payload codec for the solve service.

A client talks to the service in plain JSON.  A solve request body names
exactly one instance — ``"workflow"`` (a
:func:`~repro.workloads.serialization.workflow_to_dict` payload, solved at
the request's ``gamma``/``kind``) or ``"problem"`` (a
:func:`~repro.workloads.serialization.problem_to_dict` payload with Γ, kind
and requirement lists baked in) — plus solve parameters::

    {"workflow": {...}, "gamma": 2, "kind": "set",
     "solver": "auto", "seed": null, "verify": false,
     "backend": null, "costs": {"a3": 10.0}, "timeout": 30.0}

Parsing produces a :class:`SolveJob`, whose :attr:`SolveJob.key` is the
**coalescing key**: ``(workflow_fingerprint, backend, gamma, kind, solver,
seed, verify)`` (plus the cost-override items when present).  The
fingerprint is the store's content key, hashed straight from the payload
(:func:`~repro.workloads.fingerprint.instance_fingerprint`), so two clients
submitting the same workflow — regardless of module order, dict key order
or formatting — produce the same key, coalesce while in flight, and share
one persistent-store entry with every other surface (CLI, sweep executor).

Anything malformed raises :class:`ServiceError` with an HTTP status the
server maps onto the response; nothing here touches sockets, so the codec
is directly unit-testable.

A parsed job is answered by a :class:`SolveRunner`: the per-process hot
state (instances, a bounded planner table, warm-up) around the engine's one
cell step, :func:`~repro.engine.executor.solve_cell`.  The service holds
one and every execution-tier worker process holds its own, so both tiers
answer through the same code.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..engine import Planner
from ..engine.executor import solve_cell
from ..exceptions import ProvenanceError
from ..kernel import VALID_BACKENDS, resolve_backend

__all__ = [
    "InstanceCache",
    "JOB_STATES",
    "TERMINAL_JOB_STATES",
    "ServiceError",
    "ServiceTimeout",
    "SolveJob",
    "SolveRunner",
    "WorkerError",
    "decode_json",
    "error_envelope",
    "parse_solve_payload",
    "status_of",
]

#: Requirement-list kinds a request may ask for (workflow instances only).
VALID_KINDS = ("set", "cardinality")

#: Lifecycle of an asynchronous job (see :mod:`repro.service.background`).
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

#: The subset of :data:`JOB_STATES` a job never leaves once entered.
TERMINAL_JOB_STATES = ("done", "failed", "cancelled")

#: Default bound on a :class:`SolveRunner`'s planner table (FIFO eviction).
PLANNER_LIMIT = 128


def error_envelope(
    error_type: str, message: str, status: int
) -> dict[str, Any]:
    """The one wire shape every error answers with (v1 API contract)::

        {"error": {"type": ..., "message": ..., "status": ...}}

    ``type`` is the failing exception's class name (a worker forwards the
    original class across the process boundary), ``status`` duplicates the
    HTTP status so clients reading only the body lose nothing.
    """
    return {
        "error": {"type": error_type, "message": message, "status": status}
    }


def status_of(exc: BaseException) -> int:
    """The HTTP status a failure answers with, whichever tier raised it.

    A :class:`ServiceError` carries its own; a well-formed request for an
    unsolvable instance (unknown solver, infeasible requirements, work
    limits: a :class:`~repro.exceptions.ProvenanceError`) is 422; anything
    else is 500.
    """
    if isinstance(exc, ServiceError):
        return exc.status
    if isinstance(exc, ProvenanceError):
        return 422
    return 500


class ServiceError(Exception):
    """A request-level failure, carrying the HTTP status to report."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
        #: Class name reported in the envelope (:class:`WorkerError`
        #: overwrites it with the original class from the worker process).
        self.error_type = type(self).__name__

    def as_dict(self) -> dict[str, Any]:
        return error_envelope(self.error_type, str(self), self.status)


class ServiceTimeout(ServiceError):
    """The request's deadline passed before its computation finished.

    The computation itself keeps running (worker threads cannot be
    interrupted) and still lands in the cache and store, so a retry of the
    same request is typically served instantly.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, status=504)


class WorkerError(ServiceError):
    """A failure forwarded from an execution-tier worker process.

    Exceptions cannot cross the process boundary faithfully (tracebacks and
    custom classes do not pickle portably), so the tier ships ``(message,
    status, error_type)`` and the parent re-raises this wrapper.
    ``error_type`` preserves the original class name for sweep error
    records, keeping ``error_type`` in a report identical between the
    thread and process tiers.
    """

    def __init__(
        self, message: str, status: int = 500, error_type: str | None = None
    ) -> None:
        super().__init__(message, status)
        self.error_type = error_type or "WorkerError"


@dataclass(frozen=True)
class SolveJob:
    """One parsed solve request, canonicalized for coalescing.

    ``instance`` is the rebuilt :class:`~repro.core.workflow.Workflow` or
    :class:`~repro.core.secure_view.SecureViewProblem` — the *same object*
    for every request with the same content fingerprint (see
    :class:`InstanceCache`), so the engine's identity-keyed memory tables
    hit across requests.
    """

    source: str  # "workflow" | "problem"
    instance: Any
    fingerprint: str
    label: str
    gamma: int | None
    kind: str | None
    solver: str
    seed: int | None
    verify: bool
    backend: str
    costs: tuple[tuple[str, float], ...] | None
    timeout: float | None
    #: The raw (JSON-shaped) instance payload the request carried.  Kept so
    #: the job can be re-encoded for the process execution tier
    #: (:meth:`to_wire`); excluded from equality — the fingerprint already
    #: canonicalizes content.
    payload: Mapping[str, Any] | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        """The coalescing identity of this request.

        Identical in-flight requests attach to one computation; the cost
        items ride along so a what-if override never aliases the base
        solve.
        """
        return (
            self.fingerprint,
            self.backend,
            self.gamma,
            self.kind,
            self.solver,
            self.seed,
            self.verify,
            self.costs,
        )

    def to_wire(self) -> dict[str, Any]:
        """Re-encode this job as a ``POST /solve`` body.

        This is how a solve crosses the process boundary to the execution
        tier: the *parsed* job holds a rebuilt workflow whose callables do
        not pickle, but the JSON body round-trips — the worker re-parses it
        through :func:`parse_solve_payload` and (by fingerprint) lands on
        the same coalescing identity.  ``timeout`` is deliberately dropped:
        deadlines are enforced parent-side by the coalescer wait.
        """
        if self.payload is None:
            raise ValueError("job carries no raw payload to re-encode")
        body: dict[str, Any] = {
            self.source: self.payload,
            "label": self.label,
            "solver": self.solver,
            "verify": self.verify,
            "backend": self.backend,
        }
        if self.source == "workflow":
            body["gamma"] = self.gamma
            body["kind"] = self.kind
        if self.seed is not None:
            body["seed"] = self.seed
        if self.costs is not None:
            body["costs"] = dict(self.costs)
        return body


class InstanceCache:
    """Rebuilt instances and parsed jobs keyed by content, bounded FIFO.

    Three layers of deduplication: a digest of the raw request bytes maps
    an exact byte-for-byte repeat straight to its parsed, validated
    :class:`SolveJob` (:meth:`solve_job` — no JSON decoding, no
    validation, no canonical digest); a raw-payload digest short-circuits
    repeats of one instance payload without rebuilding anything; and the
    canonical content fingerprint maps semantically identical payloads
    (different module order, different dict order) to one live object.
    Returning the *same* object matters because the engine's memory tables
    are keyed by object identity — a repeated request then hits the cache
    front instead of re-probing the store.  Sharing one job across
    requests is safe because :class:`SolveJob` is frozen.

    ``cache`` is the :class:`~repro.engine.cache.DerivationCache` the
    instances are solved against: each new workflow's fingerprint is handed
    to it, so it never tabulates the workflow to hash it again.
    """

    def __init__(self, max_entries: int = 64, cache: Any = None) -> None:
        self.max_entries = max_entries
        self.cache = cache
        self._lock = threading.Lock()
        self._by_body: OrderedDict[bytes, SolveJob] = OrderedDict()
        self._by_digest: OrderedDict[str, tuple[Any, str]] = OrderedDict()
        self._by_fingerprint: OrderedDict[str, Any] = OrderedDict()

    def _remember(self, table: OrderedDict, key: Any, value: Any) -> None:
        while len(table) >= self.max_entries:
            table.popitem(last=False)
        table[key] = value

    def solve_job(self, raw: bytes) -> SolveJob:
        """The parsed job for one raw ``POST /solve`` body.

        A miss decodes and parses through :func:`parse_solve_payload`;
        only a job that parsed is remembered, so a malformed body fails
        the same way every time.
        """
        digest = hashlib.blake2b(raw, digest_size=16).digest()
        with self._lock:
            job = self._by_body.get(digest)
        if job is None:
            job = parse_solve_payload(decode_json(raw), self)
            with self._lock:
                self._remember(self._by_body, digest, job)
        return job

    def resolve(self, source: str, payload: Mapping[str, Any]) -> tuple[Any, str]:
        """``(instance, fingerprint)`` for one request payload.

        Serialized under one lock: concurrent first requests for the same
        content must converge on a single rebuilt object, or the
        identity-keyed engine tables would treat them as distinct
        instances.  Rebuilding under the lock costs a few ms once per new
        instance — repeats are dictionary hits.  The fingerprint is the
        sweep executor's key too (:func:`instance_fingerprint`), so service
        and sweep share persistent-store result entries.
        """
        from ..workloads.fingerprint import instance_fingerprint, payload_fingerprint
        from ..workloads.serialization import problem_from_dict, workflow_from_dict

        with self._lock:
            digest = payload_fingerprint({source: payload})
            cached = self._by_digest.get(digest)
            if cached is not None:
                return cached
            if source == "workflow":
                instance = workflow_from_dict(payload)
            else:
                instance = problem_from_dict(payload)
            fingerprint = instance_fingerprint(source, payload)
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None:
                instance = existing
            else:
                if source == "workflow" and self.cache is not None:
                    self.cache.fingerprint(instance, fingerprint)
                self._remember(self._by_fingerprint, fingerprint, instance)
            built = (instance, fingerprint)
            self._remember(self._by_digest, digest, built)
            return built


class SolveRunner:
    """One process's hot solve state: instances, planners, warm-up.

    Answers a parsed :class:`SolveJob` through the engine's
    :func:`~repro.engine.executor.solve_cell` over one shared
    :class:`~repro.engine.cache.DerivationCache`.  Planners are memoized
    per ``(source, fingerprint, Γ, kind, backend)`` in a table bounded by
    ``max_planners`` (FIFO eviction) and stamped for TTL expiry.  The
    :class:`SolveService` holds one runner; each execution-tier worker
    process holds its own over its worker cache.
    """

    def __init__(
        self,
        cache: Any,
        registry: Any = None,
        reuse_results: bool = True,
        max_planners: int = PLANNER_LIMIT,
    ) -> None:
        self.cache = cache
        self.registry = registry
        self.reuse_results = reuse_results
        self.max_planners = max_planners
        self.instances = InstanceCache(cache=cache)
        self._lock = threading.Lock()
        self._planners: OrderedDict[tuple, tuple[Planner, float]] = OrderedDict()
        self._warmed: set[str] = set()

    def planner(self, job: SolveJob) -> Planner:
        """The memoized planner for a job's instance and derivation point."""
        key = (job.source, job.fingerprint, job.gamma, job.kind, job.backend)
        with self._lock:
            entry = self._planners.get(key)
            if entry is not None:
                return entry[0]
        options = dict(cache=self.cache, registry=self.registry, backend=job.backend)
        if job.source == "workflow":
            planner = Planner(job.instance, job.gamma, kind=job.kind, **options)
        else:
            planner = Planner.from_problem(job.instance, **options)
        with self._lock:
            # First construction wins so concurrent requests converge on one
            # planner (and therefore one identity-keyed cache entry set).
            existing = self._planners.get(key)
            if existing is not None:
                return existing[0]
            while len(self._planners) >= self.max_planners:
                self._planners.popitem(last=False)
            self._planners[key] = (planner, time.monotonic())
            return planner

    def solve(self, job: SolveJob) -> dict[str, Any]:
        """The job's record; a stored error record is returned, not raised."""
        record = solve_cell(
            self.planner(job),
            job.fingerprint,
            job.label,
            job.solver,
            job.seed,
            job.verify,
            self.reuse_results,
            job.costs,
        )
        record["fingerprint"] = job.fingerprint
        return record

    def expire(self, ttl: float, now: float) -> int:
        """Drop planners built ``ttl`` seconds before ``now``; the count."""
        with self._lock:
            stale = [
                key
                for key, (_, stamp) in self._planners.items()
                if now - stamp >= ttl
            ]
            for key in stale:
                del self._planners[key]
        return len(stale)

    def warm(self, k: int) -> tuple[int, int]:
        """Preload the ``k`` most-requested stored workflows; ``(warmed, failed)``.

        For each: rebuild the instance from the meta tier's serialized
        payload (through :attr:`instances`, so requests for the same content
        map onto the *same object* and hit the identity-keyed tables),
        compile its kernel pack, and load every stored requirement point.
        A fingerprint this runner already warmed is skipped, so repeated
        passes only pick up respawns and shifted popularity.  Failures are
        isolated per workflow and counted.
        """
        store = self.cache.store
        if store is None or k <= 0:
            return 0, 0
        warmed = failed = 0
        for fingerprint, _count, payload in store.popular_workflows(k):
            if fingerprint in self._warmed:
                continue
            try:
                workflow, resolved = self.instances.resolve("workflow", payload)
                if resolved != fingerprint:
                    raise ValueError(f"payload re-fingerprints to {resolved[:12]}")
                self.cache.compiled_workflow(workflow)
                for gamma, kind, backend in store.stored_requirement_points(
                    fingerprint
                ):
                    self.cache.requirements(workflow, gamma, kind, backend=backend)
            except Exception:  # noqa: BLE001 - warm-up is best-effort
                failed += 1
                continue
            self._warmed.add(fingerprint)
            warmed += 1
        return warmed, failed


def decode_json(raw: bytes) -> Any:
    """A request body's JSON value; :class:`ServiceError` (400) if it is not."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def _parse_seed(value: Any) -> int | None:
    if value is None:
        return None
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        "seed must be an integer or null",
    )
    return int(value)


def _parse_timeout(value: Any) -> float | None:
    if value is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
        "timeout must be a positive number of seconds",
    )
    return float(value)


def _parse_costs(value: Any) -> tuple[tuple[str, float], ...] | None:
    if value is None:
        return None
    _require(isinstance(value, Mapping), "costs must be an object of attribute -> cost")
    items: list[tuple[str, float]] = []
    for name, cost in value.items():
        _require(
            isinstance(name, str)
            and isinstance(cost, (int, float))
            and not isinstance(cost, bool),
            "costs must map attribute names to numbers",
        )
        items.append((name, float(cost)))
    return tuple(sorted(items))


def parse_solve_payload(
    body: Any, instances: InstanceCache
) -> SolveJob:
    """Validate one ``POST /solve`` body and canonicalize it into a job.

    Raises :class:`ServiceError` (status 400) on anything malformed — an
    unknown field combination, a bad Γ, an unknown solver kind or backend,
    or an instance payload the serializer rejects.
    """
    _require(isinstance(body, Mapping), "request body must be a JSON object")
    has_workflow = "workflow" in body
    has_problem = "problem" in body
    _require(
        has_workflow != has_problem,
        "request must name exactly one of 'workflow' or 'problem'",
    )
    source = "workflow" if has_workflow else "problem"
    payload = body[source]
    _require(isinstance(payload, Mapping), f"'{source}' must be a JSON object")

    if has_workflow:
        gamma = body.get("gamma")
        _require(
            isinstance(gamma, int) and not isinstance(gamma, bool) and gamma >= 1,
            "workflow requests need an integer 'gamma' >= 1",
        )
        kind = body.get("kind", "set")
        _require(kind in VALID_KINDS, f"kind must be one of {VALID_KINDS}")
    else:
        _require(
            "gamma" not in body and "kind" not in body,
            "problem requests carry Γ and kind in the problem payload",
        )
        gamma = None
        kind = None

    solver = body.get("solver", "auto")
    _require(isinstance(solver, str) and bool(solver), "solver must be a name string")
    verify = body.get("verify", False)
    _require(isinstance(verify, bool), "verify must be a boolean")
    backend = body.get("backend")
    _require(
        backend is None or backend in VALID_BACKENDS,
        f"backend must be one of {sorted(VALID_BACKENDS)}",
    )

    try:
        instance, fingerprint = instances.resolve(source, payload)
    except ServiceError:
        raise
    except Exception as exc:  # serializer-level validation failures
        raise ServiceError(f"invalid {source} payload: {exc}") from exc

    label = body.get("label")
    if label is None:
        label = payload.get("name") or payload.get("workflow", {}).get("name") or source
    _require(isinstance(label, str), "label must be a string")

    return SolveJob(
        source=source,
        instance=instance,
        fingerprint=fingerprint,
        label=label,
        gamma=gamma,
        kind=kind,
        solver=solver,
        seed=_parse_seed(body.get("seed")),
        verify=verify,
        backend=resolve_backend(backend),
        costs=_parse_costs(body.get("costs")),
        timeout=_parse_timeout(body.get("timeout")),
        payload=payload,
    )
