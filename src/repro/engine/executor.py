"""Parallel sweep executor: fan a solve grid out over worker processes.

The paper's evaluation — and every benchmark and CLI comparison in this
repository — is sweep-shaped: run a grid of ``(workflow × Γ × requirement
kind × solver × seed)`` cells and collect one flat record per cell.  Until
PR 3 those sweeps ran strictly single-process; this module fans them out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping every
guarantee the serial path had:

* **deterministic results** — cells are expanded in a fixed order, each
  record carries its cell index, and the report is sorted by it, so a
  parallel sweep returns *identical records* (modulo timings) to a serial
  one;
* **failure isolation** — a solver error (or a crashed chunk) yields an
  error record for the affected cells, never a dead sweep;
* **shared derivation** — cells are chunked by *shared-module overlap*:
  workflow instances are grouped into families (union-find over their
  module content fingerprints), and all cells of one family at one
  (Γ, kind) point are dispatched to one worker, whose module-granular
  cache pays each *distinct* module derivation once across the whole
  family — a grid over ``workflow_family`` edit-chain variants derives
  each edited module once, not once per variant (unrelated instances,
  problem instances, whose requirement lists come baked in, and distinct
  Γ/kind points still fan out as before);
* **per-worker store attachment** — with a ``store`` directory, every
  worker attaches a persistent :class:`~repro.engine.store.DerivationStore`
  as its cache's back tier, so derivations (and whole solve results) are
  shared *across* workers and *across* runs: a repeated sweep against a
  warm store performs zero requirement derivations;
* **stored cells answered in the driver** — the driver hashes each
  instance once from its payload
  (:func:`~repro.workloads.fingerprint.instance_fingerprint`), answers
  every workflow cell the store's result tier already holds, and groups
  and dispatches only the rest, so a warm re-run of a grid is a store read
  that starts no workers;
* **keys computed once** — the same reserialization of a payload yields
  its modules' fingerprints
  (:class:`~repro.workloads.fingerprint.InstanceKeys`), hashed only for
  instances with dispatched cells.  They group instances into families and
  travel with each chunk to :meth:`SolveRunner.resolve`, which hands them
  to the cache, so no worker tabulates a module just to key it.

Workflows carry arbitrary Python callables and cannot be pickled, so cells
ship the *serialized* instance (the tabulated-functionality JSON payload of
:mod:`repro.workloads.serialization`) with its fingerprint.  Each process
answers cells through one :class:`SolveRunner`, which rebuilds an instance
once per *content* (two labels carrying one workflow share one object, one
planner and one derivation) and runs :func:`solve_cell`.  The solve service
and each of its execution-tier workers hold one too (:mod:`repro.service`).
Tabulation enumerates each module's input domain, so instances containing a
very-high-arity module (e.g. the paper's Example-5 star center at large n)
should stay on the in-process path (``analysis.sweep``/``compare_solvers``
with ``n_jobs=1``) rather than be shipped through a :class:`SweepInstance`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..exceptions import RequirementError
from ..kernel import resolve_backend
from .cache import CacheStats, DerivationCache
from .planner import Planner
from .store import DerivationStore, ResultKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.fingerprint import InstanceKeys

__all__ = [
    "SolveRunner",
    "SweepCell",
    "SweepInstance",
    "SweepReport",
    "SweepSpec",
    "default_jobs",
    "error_record",
    "grid_axes",
    "run_sweep",
    "solve_cell",
    "spec_from_grid",
]

#: Keys of a record that legitimately differ between runs and process
#: layouts (wall-clock and cache-locality artifacts).  Everything else must
#: be identical between a serial and a parallel execution of one grid.
VOLATILE_RECORD_KEYS = ("seconds", "cache", "from_store")

#: Default bounds on a long-lived :class:`SolveRunner`'s instance and
#: planner tables (FIFO eviction).  A sweep sizes its runners from its grid.
INSTANCE_LIMIT = 64
PLANNER_LIMIT = 128


def default_jobs() -> int:
    """A conservative default worker count (half the cores, at least 1)."""
    return max(1, (os.cpu_count() or 2) // 2)


def scrub_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """A record with its volatile keys removed (for cross-run comparison)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_RECORD_KEYS}


# ---------------------------------------------------------------------------
# Grid specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepInstance:
    """One instance of the grid: a serialized workflow or problem.

    ``source`` is ``"workflow"`` (payload from
    :func:`~repro.workloads.serialization.workflow_to_dict`; requirement
    lists are derived per (Γ, kind) grid point) or ``"problem"`` (payload
    from :func:`~repro.workloads.serialization.problem_to_dict`; Γ, kind,
    hidable attributes and requirement lists come baked in and the grid's
    ``gammas``/``kinds`` axes do not apply).
    """

    label: str
    source: str
    payload: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.source not in ("workflow", "problem"):
            raise ValueError(f"unknown sweep instance source {self.source!r}")


@dataclass(frozen=True)
class SweepCell:
    """One grid point: (instance, Γ, kind, solver, seed) plus report tags."""

    index: int
    label: str
    gamma: int | None
    kind: str | None
    solver: str
    seed: int | None
    params: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep grid: instances × gammas × kinds × solvers × seeds.

    The solver axis is normally the cross product ``solvers × seeds``; pass
    ``solver_seed_pairs`` (one flat tuple, or a per-instance-label mapping)
    to enumerate explicit ``(solver, seed)`` pairs instead — e.g. randomized
    solvers repeated per seed next to deterministic solvers run once.
    """

    instances: tuple[SweepInstance, ...]
    gammas: tuple[int, ...] = (2,)
    kinds: tuple[str, ...] = ("set",)
    solvers: tuple[str, ...] = ("auto",)
    seeds: tuple[int | None, ...] = (0,)
    solver_seed_pairs: (
        Mapping[str, tuple[tuple[str, int | None], ...]]
        | tuple[tuple[str, int | None], ...]
        | None
    ) = None
    backend: str | None = None
    verify: bool = False
    params: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Labels key run_sweep's per-instance tables (fingerprints, chunk
        # payloads): a repeated label would solve every cell carrying it on
        # one of the instances.
        counts = Counter(instance.label for instance in self.instances)
        repeated = sorted(label for label, count in counts.items() if count > 1)
        if repeated:
            raise ValueError(f"sweep instance labels must be unique: {repeated}")

    def _pairs_for(self, label: str) -> tuple[tuple[str, int | None], ...]:
        if self.solver_seed_pairs is None:
            return tuple(
                (solver, seed) for solver in self.solvers for seed in self.seeds
            )
        if isinstance(self.solver_seed_pairs, Mapping):
            return tuple(self.solver_seed_pairs.get(label, ()))
        return tuple(self.solver_seed_pairs)

    def cells(self) -> list[SweepCell]:
        """Expand the grid in deterministic instance-major order."""
        cells: list[SweepCell] = []
        index = 0
        for instance in self.instances:
            if instance.source == "problem":
                derivation_points: Iterable[tuple[int | None, str | None]] = [
                    (None, None)
                ]
            else:
                derivation_points = [
                    (gamma, kind) for gamma in self.gammas for kind in self.kinds
                ]
            tags = tuple(self.params.get(instance.label, ()))
            pairs = self._pairs_for(instance.label)
            for gamma, kind in derivation_points:
                for solver, seed in pairs:
                    cells.append(
                        SweepCell(
                            index=index,
                            label=instance.label,
                            gamma=gamma,
                            kind=kind,
                            solver=solver,
                            seed=seed,
                            params=tags,
                        )
                    )
                    index += 1
        return cells


# A grid's six axes, with the value an absent (or null) axis takes.
_GRID_DEFAULTS: Mapping[str, tuple[Any, ...]] = {
    "workflows": (),
    "problems": (),
    "gammas": (2,),
    "kinds": ("set",),
    "solvers": ("auto",),
    "seeds": (0,),
}


def grid_axes(grid: Any) -> dict[str, tuple[Any, ...]]:
    """The six axes of a JSON sweep grid, checked, with defaults filled in.

    The one rule ``repro sweep`` grid files and the service's inline
    ``/v1/sweep`` grids share.  An absent or ``null`` axis takes its
    default.  Otherwise every axis must be a JSON array; ``gammas``,
    ``kinds``, ``solvers`` and ``seeds`` must be non-empty; ``workflows``
    and ``problems`` may each be empty, but together they must name an
    instance.  Raises :class:`ValueError`.
    """
    if not isinstance(grid, Mapping):
        raise ValueError("sweep grid must be a JSON object")
    axes: dict[str, tuple[Any, ...]] = {}
    for axis, default in _GRID_DEFAULTS.items():
        value = grid.get(axis)
        if value is None:
            value = default
        elif not isinstance(value, (list, tuple)):
            raise ValueError(f"grid key {axis!r} must be a JSON array")
        elif not value and default:
            raise ValueError(f"grid key {axis!r} must not be empty")
        axes[axis] = tuple(value)
    if not (axes["workflows"] or axes["problems"]):
        raise ValueError("sweep grid names no 'workflows' or 'problems'")
    return axes


def spec_from_grid(grid: Mapping[str, Any], base_dir: str = ".") -> SweepSpec:
    """Build a :class:`SweepSpec` from a JSON grid description.

    Recognized keys: ``workflows`` (paths to workflow *or* problem files —
    a problem file contributes its embedded workflow and rides the
    ``gammas``/``kinds`` axes), ``problems`` (paths to problem files used
    verbatim, with their baked Γ/kind/requirements), ``gammas``, ``kinds``,
    ``solvers``, ``seeds``, ``backend``, ``verify``.  Relative paths are
    resolved against ``base_dir``.  The axes follow :func:`grid_axes`.
    """
    import json

    axes = grid_axes(grid)
    instances: list[SweepInstance] = []
    used_labels: set[str] = set()

    def unique_label(path: str) -> str:
        stem = os.path.splitext(os.path.basename(path))[0]
        label = stem
        suffix = 2
        while label in used_labels:
            label = f"{stem}#{suffix}"
            suffix += 1
        used_labels.add(label)
        return label

    def load(path: str) -> Mapping[str, Any]:
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        with open(full, "r", encoding="utf-8") as handle:
            return json.load(handle)

    for path in axes["workflows"]:
        payload = load(path)
        if "workflow" in payload:  # a problem file: use its workflow part
            payload = payload["workflow"]
        instances.append(SweepInstance(unique_label(path), "workflow", payload))
    for path in axes["problems"]:
        instances.append(SweepInstance(unique_label(path), "problem", load(path)))

    return SweepSpec(
        instances=tuple(instances),
        gammas=tuple(int(g) for g in axes["gammas"]),
        kinds=axes["kinds"],
        solvers=axes["solvers"],
        seeds=tuple(None if s is None else int(s) for s in axes["seeds"]),
        backend=grid.get("backend"),
        verify=bool(grid.get("verify", False)),
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _bounded_put(table: OrderedDict, limit: int, key: Any, value: Any) -> None:
    while len(table) >= limit:
        table.popitem(last=False)
    table[key] = value


class SolveRunner:
    """One process's solve state: a cache, and instances and planners by content.

    Every surface that answers cells holds exactly one: each sweep worker
    (built by the pool initializer), the in-process sweep path, the solve
    service, and each of the service's execution-tier worker processes.
    The :class:`~repro.engine.cache.DerivationCache` is backed by a
    :class:`~repro.engine.store.DerivationStore` when ``store`` (an
    instance or a directory path) is given.

    :meth:`resolve` rebuilds a serialized instance once per content
    fingerprint, so equal content under any label or byte spelling is one
    object and the cache's identity-keyed tables hit across requests.
    :meth:`planner` memoizes planners per ``(source, fingerprint, Γ, kind,
    backend)``.  Both tables evict FIFO past ``max_instances`` /
    ``max_planners``; a sweep sizes them from its grid, so a worker never
    rebuilds an instance mid-sweep.  Both are thread-safe: concurrent first
    requests converge on one instance and one planner.  Every cell is
    answered by :func:`solve_cell`.
    """

    def __init__(
        self,
        store: DerivationStore | str | os.PathLike | None = None,
        registry: Any = None,
        reuse_results: bool = True,
        max_instances: int = INSTANCE_LIMIT,
        max_planners: int = PLANNER_LIMIT,
    ) -> None:
        if store is not None and not isinstance(store, DerivationStore):
            store = DerivationStore(store)
        self.cache = DerivationCache(store=store)
        self.registry = registry
        self.reuse_results = reuse_results
        self.max_instances = max_instances
        self.max_planners = max_planners
        self._lock = threading.Lock()
        self._by_digest: OrderedDict[str, tuple[Any, str]] = OrderedDict()
        self._by_fingerprint: OrderedDict[str, Any] = OrderedDict()
        self._planners: OrderedDict[tuple, Planner] = OrderedDict()
        self._warmed: set[str] = set()

    def resolve(
        self,
        source: str,
        payload: Mapping[str, Any],
        fingerprint: str | None = None,
        module_fingerprints: Mapping[str, str] | None = None,
    ) -> tuple[Any, str]:
        """``(instance, fingerprint)`` for one serialized instance.

        ``fingerprint`` is the payload's store key, and
        ``module_fingerprints`` its modules' keys by name, when the caller
        already hashed it (:func:`run_sweep` does); otherwise a digest of
        the raw payload short-circuits repeats, and a new payload is hashed
        with :class:`~repro.workloads.fingerprint.InstanceKeys` (its error
        raised to the caller).  A new workflow's module fingerprints are
        handed to the cache, so no module is tabulated to be hashed again.
        Serialized under one lock: rebuilding under it costs a few ms once
        per new instance, and repeats are dictionary hits.
        """
        from ..workloads.fingerprint import InstanceKeys, payload_fingerprint
        from ..workloads.serialization import problem_from_dict, workflow_from_dict

        with self._lock:
            digest = None
            if fingerprint is not None:
                instance = self._by_fingerprint.get(fingerprint)
                if instance is not None:
                    return instance, fingerprint
            else:
                digest = payload_fingerprint({source: payload})
                built = self._by_digest.get(digest)
                if built is not None:
                    return built
            # Rebuilt before hashing, so a payload that fails both ways
            # reports the rebuild's error.
            if source == "workflow":
                instance = workflow_from_dict(payload)
            else:
                instance = problem_from_dict(payload)
            keys = None
            if fingerprint is None:
                keys = InstanceKeys(source, payload)
                fingerprint = keys.fingerprint
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None:
                instance = existing
            else:
                if source == "workflow":
                    if keys is not None:
                        module_fingerprints = keys.modules()
                    for name, known in (module_fingerprints or {}).items():
                        self.cache.module_fingerprint(instance.module(name), known)
                _bounded_put(
                    self._by_fingerprint, self.max_instances, fingerprint, instance
                )
            built = (instance, fingerprint)
            if digest is not None:
                _bounded_put(self._by_digest, self.max_instances, digest, built)
            return built

    def planner(
        self,
        source: str,
        instance: Any,
        fingerprint: str,
        gamma: int | None,
        kind: str | None,
        backend: str | None,
    ) -> Planner:
        """The memoized planner for one instance at one derivation point."""
        key = (source, fingerprint, gamma, kind, backend)
        with self._lock:
            planner = self._planners.get(key)
        if planner is not None:
            return planner
        options = dict(cache=self.cache, registry=self.registry, backend=backend)
        if source == "workflow":
            planner = Planner(instance, gamma, kind=kind, **options)
        else:
            planner = Planner.from_problem(instance, **options)
        with self._lock:
            # First construction wins so concurrent requests converge on one
            # planner (and therefore one identity-keyed cache entry set).
            existing = self._planners.get(key)
            if existing is not None:
                return existing
            _bounded_put(self._planners, self.max_planners, key, planner)
            return planner

    def warm(self, k: int) -> tuple[int, int]:
        """Preload the ``k`` most-requested stored workflows; ``(warmed, failed)``.

        For each entry of the store's popularity record: rebuild the
        instance from its payload (through :meth:`resolve`, so requests for
        the same content map onto the *same object*), load its private
        modules' packs (which Γ-privacy certificates read), and load every
        recorded ``(gamma, kind, backend)`` point.  A fingerprint this
        runner already warmed is skipped.  Failures are isolated per
        workflow and counted.
        """
        store = self.cache.store
        if store is None or k <= 0:
            return 0, 0
        warmed = failed = 0
        for fingerprint, _count, payload, points in store.popular_workflows(k):
            if fingerprint in self._warmed:
                continue
            try:
                workflow, resolved = self.resolve("workflow", payload)
                if resolved != fingerprint:
                    raise ValueError(f"payload re-fingerprints to {resolved[:12]}")
                for module in workflow.private_modules:
                    self.cache.compiled_module(module)
                for gamma, kind, backend in points:
                    self.cache.requirements(workflow, gamma, kind, backend=backend)
            except Exception:  # noqa: BLE001 - warm-up is best-effort
                failed += 1
                continue
            self._warmed.add(fingerprint)
            warmed += 1
        return warmed, failed


#: A sweep pool worker's runner, built by :func:`_init_worker`.
_RUNNER: SolveRunner | None = None


def _init_worker(*args: Any) -> None:
    global _RUNNER
    _RUNNER = SolveRunner(*args)


def error_record(
    label: str,
    gamma: int | None,
    kind: str | None,
    solver: str,
    seed: int | None,
    exc: BaseException,
) -> dict[str, Any]:
    """The record of a cell whose solve raised ``exc`` (cost infinite).

    ``error_type`` is the failing class's name; a failure forwarded from
    a service worker process carries the original one as ``error_type``.
    """
    return {
        "workflow": label,
        "gamma": gamma,
        "kind": kind,
        "solver": solver,
        "seed": seed,
        "method": solver,
        "cost": float("inf"),
        "error": str(exc),
        "error_type": getattr(exc, "error_type", type(exc).__name__),
        "from_store": False,
    }


def _stored_record(
    store: DerivationStore, fingerprint: str, key: tuple, label: str
) -> dict[str, Any] | None:
    """The result tier's record of one cell, relabelled and marked
    ``from_store``; ``None`` when the store holds none."""
    stored = store.load_result(fingerprint, key)
    if stored is None:
        return None
    return {**stored, "workflow": label, "from_store": True}


def solve_cell(
    planner: Planner,
    fingerprint: str,
    label: str,
    solver: str,
    seed: int | None = None,
    verify: bool = False,
    reuse_results: bool = True,
    costs: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """Answer one cell — (instance, Γ, kind, solver, seed) — as a flat record.

    The one solve step every surface runs: the sweep executor's chunks,
    and the solve service on its threads and in its process workers.  With
    a store attached to the planner's cache, its result tier is probed
    first (``reuse_results``) and a fresh record is persisted; a stored
    record, error records included, comes back with ``from_store: True``.
    Infeasibility raised while *deriving* the requirement lists is a pure
    function of the workflow's content, so it is persisted as an error
    record before it propagates; every other failure (work limits, solver
    applicability) may change across versions and is never persisted.
    Cost overrides are never persisted either: the result key has no cost
    dimension, so a stored override would alias the base solve.
    """
    cache = planner.cache
    before = cache.stats()
    key = ResultKey(planner.backend, planner.gamma, planner.kind, solver, seed, verify)
    costs = dict(costs) if costs else None
    store = cache.store if costs is None else None
    if store is not None and reuse_results:
        record = _stored_record(store, fingerprint, key, label)
        if record is not None:
            record["cache"] = cache.stats().delta(before).as_dict()
            return record
    try:
        planner.problem(costs)
    except RequirementError as exc:
        if store is not None:
            record = error_record(label, planner.gamma, planner.kind, solver, seed, exc)
            store.save_result(fingerprint, key, record)
        raise
    result = planner.solve(solver=solver, seed=seed, verify=verify, costs=costs)
    record = {
        "workflow": label,
        "gamma": planner.gamma,
        "kind": planner.kind,
        "solver": solver,
        "resolved_solver": result.solver,
        "method": str(result.solution.meta.get("method", result.solver)),
        "seed": seed,
        "cost": result.cost,
        "hidden_attributes": sorted(result.hidden_attributes),
        "privatized_modules": sorted(result.privatized_modules),
        "guarantee": result.guarantee,
        "seconds": result.seconds,
    }
    if result.certificate is not None:
        record["verified"] = result.certificate.ok
    if store is not None:
        store.save_result(fingerprint, key, record)
    record["from_store"] = False
    # Informational under concurrency (another thread may tick the shared
    # counters in between); aggregate deltas are the authoritative totals.
    record["cache"] = result.cache_stats.delta(before).as_dict()
    return record


def _cell_record(cell: SweepCell, record: dict[str, Any]) -> dict[str, Any]:
    """Tag a cell's record with its grid index and report tags."""
    record["index"] = cell.index
    record.update(cell.params)
    return record


def _error_record(cell: SweepCell, exc: BaseException) -> dict[str, Any]:
    record = error_record(
        cell.label, cell.gamma, cell.kind, cell.solver, cell.seed, exc
    )
    return _cell_record(cell, record)


def _run_chunk_in(
    runner: SolveRunner, chunk: Mapping[str, Any]
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Run one chunk of cells (one family's worth) and report stat deltas."""
    instances: Mapping[str, SweepInstance] = chunk["instances"]
    fingerprints: Mapping[str, str | None] = chunk["fingerprints"]
    module_fingerprints: Mapping[str, Mapping[str, str]] = chunk["module_fingerprints"]
    cells: Sequence[SweepCell] = chunk["cells"]
    records: list[dict[str, Any]] = []
    before_chunk = runner.cache.stats()
    result_hits = 0
    for cell in cells:
        try:
            source = instances[cell.label].source
            instance, fingerprint = runner.resolve(
                source,
                instances[cell.label].payload,
                fingerprints[cell.label],
                module_fingerprints[cell.label],
            )
            planner = runner.planner(
                source, instance, fingerprint, cell.gamma, cell.kind, chunk["backend"]
            )
            record = solve_cell(
                planner,
                fingerprint,
                cell.label,
                cell.solver,
                cell.seed,
                bool(chunk["verify"]),
                runner.reuse_results,
            )
        except Exception as exc:  # noqa: BLE001 - failure isolation by design
            records.append(_error_record(cell, exc))
            continue
        result_hits += record["from_store"]
        records.append(_cell_record(cell, record))
    chunk_delta = runner.cache.stats().delta(before_chunk).as_dict()
    chunk_delta["result_store_hits"] = result_hits
    return records, chunk_delta


def _run_chunk(chunk: Mapping[str, Any]) -> tuple[list[dict[str, Any]], dict[str, int]]:
    return _run_chunk_in(_RUNNER, chunk)


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """Everything a sweep produced: ordered records plus aggregate counters."""

    records: list[dict[str, Any]]
    n_jobs: int
    seconds: float
    stats: dict[str, int]

    @property
    def errors(self) -> int:
        return sum(1 for record in self.records if "error" in record)

    @property
    def result_store_hits(self) -> int:
        return int(self.stats.get("result_store_hits", 0))

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells": len(self.records),
            "errors": self.errors,
            "jobs": self.n_jobs,
            "seconds": self.seconds,
            "stats": dict(self.stats),
            "records": self.records,
        }


def _families(modules: Mapping[str, Mapping[str, str]]) -> list[list[str]]:
    """Group instance labels into families by shared-module overlap.

    ``modules`` maps each label, in instance order, to its modules'
    fingerprints by name.  Union-find over them: two instances sharing
    *any* module (by content) land in one family.  Families are returned in first-
    appearance order, members in instance order, so chunk expansion stays
    deterministic.
    """
    parent: dict[str, str] = {label: label for label in modules}

    def find(label: str) -> str:
        while parent[label] != label:
            parent[label] = parent[parent[label]]
            label = parent[label]
        return label

    owner: dict[str, str] = {}
    for label, fingerprints in modules.items():
        for fingerprint in fingerprints.values():
            seen = owner.setdefault(fingerprint, label)
            if seen != label:
                parent[find(label)] = find(seen)
    families: dict[str, list[str]] = {}
    for label in modules:
        families.setdefault(find(label), []).append(label)
    return list(families.values())


def _instance_keys(
    instances: Iterable[SweepInstance],
) -> dict[str, "InstanceKeys | None"]:
    """Each instance's :class:`~repro.workloads.fingerprint.InstanceKeys`,
    from one reserialization of its payload.

    ``None`` marks a payload that does not fingerprint: its cells skip
    the store probe and dispatch, and the worker reports the error per
    cell.
    """
    from ..workloads.fingerprint import InstanceKeys

    keys: dict[str, InstanceKeys | None] = {}
    for instance in instances:
        try:
            keys[instance.label] = InstanceKeys(instance.source, instance.payload)
        except Exception:  # noqa: BLE001 - the worker reports it per cell
            keys[instance.label] = None
    return keys


def _answer_stored(
    spec: SweepSpec,
    cells: Sequence[SweepCell],
    keys: Mapping[str, "InstanceKeys | None"],
    store: DerivationStore,
) -> tuple[list[dict[str, Any]], list[SweepCell]]:
    """Answer every workflow cell the result tier holds.

    Returns the answered records — exactly what a worker's store hit
    produces — and the cells left to dispatch.  ``problem`` cells always
    dispatch: their Γ and kind live in the payload, not the grid.
    """
    records: list[dict[str, Any]] = []
    try:
        backend = resolve_backend(spec.backend)
    except ValueError:
        return records, list(cells)  # workers report the bad backend per cell
    verify = bool(spec.verify)
    workflows = {i.label for i in spec.instances if i.source == "workflow"}
    remaining: list[SweepCell] = []
    for cell in cells:
        instance_keys = keys[cell.label]
        record = None
        if instance_keys is not None and cell.label in workflows:
            key = ResultKey(
                backend, cell.gamma, cell.kind, cell.solver, cell.seed, verify
            )
            record = _stored_record(store, instance_keys.fingerprint, key, cell.label)
        if record is None:
            remaining.append(cell)
        else:
            record["cache"] = CacheStats().as_dict()
            records.append(_cell_record(cell, record))
    return records, remaining


def _chunks_for(
    spec: SweepSpec,
    cells: Sequence[SweepCell] | None = None,
    keys: Mapping[str, "InstanceKeys | None"] | None = None,
) -> list[dict[str, Any]]:
    """Group cells by (shared-module family, Γ, kind) to share derivations.

    All cells of one family (instances connected by shared module content)
    at one (Γ, kind) point go to one worker, whose module-granular cache
    derives each distinct module once for the whole family.  Distinct
    (Γ, kind) points still fan out as separate chunks — requirement lists
    are per-(Γ, kind) anyway, so splitting there keeps a single-instance
    multi-Γ grid parallel instead of collapsing it into one serial chunk.
    ``cells`` (default: the whole grid) are the cells to dispatch; only
    their instances are grouped, and only their workflow payloads' module
    fingerprints are computed, from ``keys`` (:func:`_instance_keys`,
    computed here when omitted).  A problem instance, or a payload that
    does not fingerprint, is its own family.  Each chunk carries its
    instances' fingerprints and module fingerprints (a missing one is
    computed by the worker).
    """
    if cells is None:
        cells = spec.cells()
    pending = {cell.label for cell in cells}
    by_instance = {
        instance.label: instance
        for instance in spec.instances
        if instance.label in pending
    }
    if keys is None:
        keys = _instance_keys(by_instance.values())
    modules = {
        label: keys[label].modules() if keys[label] is not None else {}
        for label in by_instance
    }
    family_of = {
        label: index
        for index, family in enumerate(_families(modules))
        for label in family
    }
    grouped: dict[tuple, list[SweepCell]] = {}
    for cell in cells:
        grouped.setdefault(
            (family_of[cell.label], cell.gamma, cell.kind), []
        ).append(cell)
    chunks: list[dict[str, Any]] = []
    for group in grouped.values():
        # Ship only the payloads this group actually touches — tabulated
        # workflows can be large and chunks cross the process boundary.
        labels = list(dict.fromkeys(c.label for c in group))
        chunks.append(
            {
                "instances": {label: by_instance[label] for label in labels},
                "fingerprints": {
                    label: None if keys[label] is None else keys[label].fingerprint
                    for label in labels
                },
                "module_fingerprints": {label: modules[label] for label in labels},
                "cells": group,
                "backend": spec.backend,
                "verify": spec.verify,
            }
        )
    return chunks


def _merge_stats(totals: dict[str, int], delta: Mapping[str, int]) -> None:
    for key, value in delta.items():
        totals[key] = totals.get(key, 0) + int(value)


def run_sweep(
    spec: SweepSpec,
    n_jobs: int = 1,
    store: DerivationStore | str | os.PathLike | None = None,
    reuse_results: bool = True,
) -> SweepReport:
    """Execute a sweep grid, serially or across ``n_jobs`` worker processes.

    Parameters
    ----------
    spec:
        The grid (see :class:`SweepSpec` / :func:`spec_from_grid`).
    n_jobs:
        Worker processes; ``1`` runs in-process through the *same* cell
        runner, so serial and parallel sweeps produce identical records
        (modulo timings).  ``0`` or negative selects :func:`default_jobs`.
    store:
        Optional persistent store (instance or directory path).  Each
        worker attaches its own :class:`DerivationStore` over the same
        directory; derived artifacts and solve results are shared across
        workers and across runs.
    reuse_results:
        When a store is attached, serve previously-solved cells straight
        from it (``from_store: true`` in the record) instead of re-running
        the solver.  The driver answers every stored workflow cell itself,
        from one fingerprint per instance, and dispatches only the rest, so
        a warm re-run starts no workers (``stats["chunks"] == 0``).
        Derivation-level sharing happens regardless.

    Every process answers its chunks through one :class:`SolveRunner`
    whose tables are sized from the dispatched cells, so no worker evicts
    an instance or a planner it needs again later in the sweep.
    """
    started = time.perf_counter()
    if n_jobs <= 0:
        n_jobs = default_jobs()
    if store is None or isinstance(store, DerivationStore):
        store_handle = store
    else:
        store_handle = DerivationStore(store)
    store_path = str(store_handle.root) if store_handle is not None else None

    keys = _instance_keys(spec.instances)
    records: list[dict[str, Any]] = []
    cells = spec.cells()
    if store_handle is not None and reuse_results:
        records, cells = _answer_stored(spec, cells, keys, store_handle)
    totals: dict[str, int] = {"result_store_hits": len(records)}
    chunks = _chunks_for(spec, cells, keys)
    totals["chunks"] = len(chunks)
    # Runner table bounds: one slot per dispatched instance and point.
    sizes = (
        max(1, len({cell.label for cell in cells})),
        max(1, len({(cell.label, cell.gamma, cell.kind) for cell in cells})),
    )

    if n_jobs == 1 or len(chunks) <= 1:
        # In-process: reuse the driver's store handle, so a caller-passed
        # store's counters reflect the run (worker processes always open
        # their own).
        runner = SolveRunner(store_handle, None, reuse_results, *sizes)
        for chunk in chunks:
            chunk_records, delta = _run_chunk_in(runner, chunk)
            records.extend(chunk_records)
            _merge_stats(totals, delta)
        effective_jobs = 1
    else:
        effective_jobs = min(n_jobs, len(chunks))
        with ProcessPoolExecutor(
            max_workers=effective_jobs,
            initializer=_init_worker,
            initargs=(store_path, None, reuse_results, *sizes),
        ) as pool:
            pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = pending.pop(future)
                    try:
                        chunk_records, delta = future.result()
                    except Exception as exc:  # noqa: BLE001 - isolate dead chunks
                        chunk_records = [
                            _error_record(cell, exc) for cell in chunk["cells"]
                        ]
                        delta = {}
                    records.extend(chunk_records)
                    _merge_stats(totals, delta)

    records.sort(key=lambda record: record["index"])
    for name in CacheStats().as_dict():
        totals.setdefault(name, 0)
    return SweepReport(
        records=records,
        n_jobs=effective_jobs,
        seconds=time.perf_counter() - started,
        stats=totals,
    )
