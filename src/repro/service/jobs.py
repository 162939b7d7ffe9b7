"""Request payload codec for the solve service.

A client talks to the service in plain JSON.  A solve request body names
exactly one instance — ``"workflow"`` (a
:func:`~repro.workloads.serialization.workflow_to_dict` payload, solved at
the request's ``gamma``/``kind``) or ``"problem"`` (a
:func:`~repro.workloads.serialization.problem_to_dict` payload with Γ, kind
and requirement lists baked in) — plus solve parameters::

    {"workflow": {...}, "gamma": 2, "kind": "set",
     "solver": "auto", "seed": null,
     "costs": {"a3": 10.0}, "timeout": 30.0}

An optional ``"label"`` names the record; any other field is ignored
(``"verify"`` among them: every record carries its certificate's
``verified``).  Parsing produces a :class:`SolveJob`, whose
:attr:`SolveJob.key` is the **coalescing key**: ``(workflow_fingerprint,
gamma, kind, solver, seed)`` (plus the cost-override items when present).
The fingerprint is the store's content key, hashed straight from the
payload (:func:`~repro.workloads.fingerprint.instance_fingerprint`), so
two clients submitting the same workflow — regardless of module order,
dict key order or formatting — produce the same key, coalesce while in
flight, and share one persistent-store entry with every other surface
(CLI, sweep executor).

Anything malformed raises :class:`ServiceError` with an HTTP status the
server maps onto the response; nothing here touches sockets, so the codec
is directly unit-testable.

A parsed job is answered (:meth:`SolveJob.run`) by the engine's
:class:`~repro.engine.executor.SolveRunner` — the per-process state that
rebuilds instances and memoizes planners by content — through the engine's
one cell step, :func:`~repro.engine.executor.solve_cell`.  The service
holds one runner and every execution-tier worker process holds its own, so
both tiers answer through the same code.  The only service-side table is
:class:`InstanceCache`, the raw-body → :class:`SolveJob` memo layered on
the service's runner.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..engine.executor import SolveRunner, solve_cell
from ..exceptions import ProvenanceError

__all__ = [
    "InstanceCache",
    "JOB_STATES",
    "TERMINAL_JOB_STATES",
    "ServiceError",
    "ServiceTimeout",
    "SolveJob",
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
    :meth:`~repro.engine.executor.SolveRunner.resolve`), so the engine's
    identity-keyed memory tables hit across requests.
    """

    source: str  # "workflow" | "problem"
    instance: Any
    fingerprint: str
    label: str
    gamma: int | None
    kind: str | None
    solver: str
    seed: int | None
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
            self.gamma,
            self.kind,
            self.solver,
            self.seed,
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
        }
        if self.source == "workflow":
            body["gamma"] = self.gamma
            body["kind"] = self.kind
        if self.seed is not None:
            body["seed"] = self.seed
        if self.costs is not None:
            body["costs"] = dict(self.costs)
        return body

    def run(self, runner: SolveRunner) -> dict[str, Any]:
        """This job's record, answered through ``runner``'s planner table.

        A stored error record is returned, not raised.
        """
        planner = runner.planner(
            self.source, self.instance, self.fingerprint, self.gamma, self.kind
        )
        record = solve_cell(
            planner,
            self.fingerprint,
            self.label,
            self.solver,
            self.seed,
            runner.reuse_results,
            self.costs,
        )
        record["fingerprint"] = self.fingerprint
        return record


class InstanceCache:
    """Parsed jobs keyed by raw request bytes, over a runner's instance table.

    A digest of the raw request bytes maps an exact byte-for-byte repeat
    straight to its parsed, validated :class:`SolveJob` (:meth:`solve_job`
    — no JSON decoding, no validation, no canonical digest); a miss parses
    through :func:`parse_solve_payload`, whose instance resolution is the
    ``runner``'s (:meth:`~repro.engine.executor.SolveRunner.resolve`,
    content-keyed).  Sharing one job across requests is safe because
    :class:`SolveJob` is frozen.  The memo shares the runner's instance
    bound (FIFO eviction).
    """

    def __init__(self, runner: SolveRunner | None = None) -> None:
        self.runner = runner if runner is not None else SolveRunner()
        self._lock = threading.Lock()
        self._by_body: OrderedDict[bytes, SolveJob] = OrderedDict()

    def solve_job(self, raw: bytes) -> SolveJob:
        """The parsed job for one raw ``POST /solve`` body.

        Only a job that parsed is remembered, so a malformed body fails the
        same way every time.
        """
        digest = hashlib.blake2b(raw, digest_size=16).digest()
        with self._lock:
            job = self._by_body.get(digest)
        if job is None:
            job = parse_solve_payload(decode_json(raw), self)
            with self._lock:
                while len(self._by_body) >= self.runner.max_instances:
                    self._by_body.popitem(last=False)
                self._by_body[digest] = job
        return job

    def resolve(self, source: str, payload: Mapping[str, Any]) -> tuple[Any, str]:
        """``(instance, fingerprint)`` for one request payload, from the runner."""
        return self.runner.resolve(source, payload)


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
    body: Any, instances: InstanceCache | SolveRunner
) -> SolveJob:
    """Validate one ``POST /solve`` body and canonicalize it into a job.

    ``instances`` resolves the request's instance payload by content: a
    service's :class:`InstanceCache`, or a bare runner.  Raises
    :class:`ServiceError` (status 400) on anything malformed — an unknown
    field combination, a bad Γ, an unknown requirement kind, or an
    instance payload the serializer rejects.  Unknown fields are ignored.
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
        costs=_parse_costs(body.get("costs")),
        timeout=_parse_timeout(body.get("timeout")),
        payload=payload,
    )
