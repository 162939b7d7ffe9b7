"""The unified Secure-View engine: registry, planner, shared derivation cache.

This package is the canonical way to solve Secure-View instances.  Instead
of calling per-algorithm functions in :mod:`repro.optim` (each with its own
signature) and hand-rolling the derive-requirements → build-problem →
solve → assemble pipeline, callers go through one facade::

    from repro.engine import Planner

    planner = Planner(workflow, gamma=2, kind="set")
    result = planner.solve()                          # auto-selected solver
    result = planner.solve(solver="exact", verify=True)
    print(result.cost, result.guarantee, result.certificate.ok)

Components
----------
:class:`Planner`
    Derives requirement lists and materializes relations **once**, memoizes
    them in a :class:`DerivationCache`, auto-selects solvers, and verifies
    Γ-privacy on request.  ``Planner.evolve`` produces a planner for an
    edited workflow that re-derives only the modules whose content changed.
:class:`SolverRegistry` / :func:`register_solver`
    Decorator-based registry of algorithms with metadata (constraint kind,
    scope, randomization, guarantee); pre-populated with every algorithm in
    :mod:`repro.optim` by :mod:`repro.engine.adapters`.  It is the only map
    from solver names to algorithms.
:class:`SolveResult`
    The uniform result every solver answers with.
:class:`DerivationCache`
    Two-tier memoization of requirement derivation and compiled module
    packs: a bounded in-memory front plus an optional
    persistent :class:`DerivationStore` back, with hit/miss counters for
    both tiers.  Requirement derivation is
    module-granular: per-module lists and packs are keyed by module content
    fingerprint and shared across workflows, cost variants and edit-chains.
:class:`DerivationStore`
    Content-addressed, disk-backed persistence for derived artifacts keyed
    by workflow fingerprint — plus a shared ``modules/`` tier keyed by
    module fingerprint — so a warm store skips derivation across process
    boundaries.  ``disk_stats``/``gc`` keep long-lived stores bounded.
:func:`run_sweep` / :class:`SweepSpec`
    The parallel sweep executor: fan a (workflow × Γ × kind × solver ×
    seed) grid over worker processes with per-worker store attachment,
    deterministic record ordering and failure isolation.
:class:`SolveRunner`
    One process's solve state — a cache, plus instances and planners keyed
    by content — held by every sweep worker, the solve service and each of
    its execution-tier workers.
"""

from .cache import CacheStats, DerivationCache
from .executor import (
    SolveRunner,
    SweepCell,
    SweepInstance,
    SweepReport,
    SweepSpec,
    default_jobs,
    run_sweep,
    scrub_record,
    spec_from_grid,
)
from .planner import Planner
from .registry import (
    SolverRegistry,
    SolverSpec,
    default_registry,
    register_solver,
)
from .result import PrivacyCertificate, SolveResult
from .store import DerivationStore

from . import adapters as _adapters  # noqa: F401  (populates the registry)

__all__ = [
    "CacheStats",
    "DerivationCache",
    "DerivationStore",
    "Planner",
    "PrivacyCertificate",
    "SolveResult",
    "SolveRunner",
    "SolverRegistry",
    "SolverSpec",
    "SweepCell",
    "SweepInstance",
    "SweepReport",
    "SweepSpec",
    "default_jobs",
    "default_registry",
    "register_solver",
    "run_sweep",
    "scrub_record",
    "spec_from_grid",
]
