"""The :class:`Planner` — one entry point for solving Secure-View instances.

A planner owns a workflow, the privacy target Γ, and a shared
:class:`~repro.engine.cache.DerivationCache`.  It derives requirement lists
**once**, memoizes them (and the packed module tables its privacy
certificates read) in the cache, and dispatches any registered algorithm
through a uniform interface::

    planner = Planner(workflow, gamma=2, kind="set")
    result = planner.solve()                        # auto-selected solver
    result = planner.solve(solver="exact")          # result.certificate.ok
    result = planner.solve(solver="lp_rounding", seed=7)
    result = planner.solve(costs={"a3": 10.0})      # what-if cost override

Because the cache is shared across ``solve`` calls (and across planners,
when one cache is passed around), a multi-solver sweep pays the exponential
requirement derivation a single time — the comparative benchmarks measure
severalfold wall-clock wins on sweeps that previously re-derived per solver.

Derivation and certificates run on the bit-compiled privacy kernel
(:mod:`repro.kernel`), one pack per module content; :mod:`repro.core`'s
brute-force enumerators are the oracle the property tests compare it
against.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..core.module import Module
from ..core.possible_worlds import DEFAULT_WORK_LIMIT
from ..core.privacy import workflow_privacy_level
from ..core.requirements import RequirementList, SetRequirementList
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..core.workflow import Workflow
from ..exceptions import RequirementError, SolverError, WorkflowError, WorkLimitError
from ..optim.local_search import improve_solution
from .cache import DerivationCache
from .registry import SolverRegistry, SolverSpec, default_registry
from .result import PrivacyCertificate, SolveResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import DerivationStore

__all__ = ["Planner"]


class Planner:
    """Facade over requirement derivation, solver dispatch and verification.

    Parameters
    ----------
    workflow, gamma:
        The workflow to secure and the privacy target Γ.
    kind:
        Requirement-list kind to derive (``"set"`` or ``"cardinality"``);
        ignored when explicit ``requirements`` are supplied.
    requirements:
        Pre-built requirement lists (e.g. from a problem file).  When
        omitted they are derived from standalone analysis on first use and
        memoized in the cache.
    hidable_attributes, allow_privatization:
        Forwarded to :class:`SecureViewProblem`.
    cache:
        A shared :class:`DerivationCache`; a fresh one is created when
        omitted.  Pass one cache to several planners to share derivations
        across a parameter sweep.
    store:
        A persistent :class:`~repro.engine.store.DerivationStore` (or a
        directory path for one) to attach as the cache's back tier, so
        derivations survive across processes and runs.  When both ``cache``
        and ``store`` are given, the store is attached to the cache unless
        the cache already has one.
    registry:
        Solver registry to dispatch into; defaults to the process-wide one.
    """

    def __init__(
        self,
        workflow: Workflow,
        gamma: int,
        *,
        kind: str = "set",
        requirements: Mapping[str, RequirementList] | None = None,
        hidable_attributes: frozenset[str] | None = None,
        allow_privatization: bool = True,
        cache: DerivationCache | None = None,
        store: "DerivationStore | str | None" = None,
        registry: SolverRegistry | None = None,
    ) -> None:
        if kind not in ("set", "cardinality"):
            raise RequirementError(f"unknown requirement kind {kind!r}")
        self.workflow = workflow
        self.gamma = gamma
        self.kind = kind
        self.hidable_attributes = hidable_attributes
        self.allow_privatization = allow_privatization
        self.cache = cache if cache is not None else DerivationCache()
        if store is not None and self.cache.store is None:
            if isinstance(store, str):
                from .store import DerivationStore

                store = DerivationStore(store)
            self.cache.attach_store(store)
        self.registry = registry if registry is not None else default_registry()
        if requirements is not None:
            first = next(iter(requirements.values()))
            self.kind = (
                "set" if isinstance(first, SetRequirementList) else "cardinality"
            )
            self.cache.seed_requirements(workflow, gamma, self.kind, requirements)
        self._problems: dict[object, SecureViewProblem] = {}
        self._workflows: dict[object, Workflow] = {None: workflow}

    @classmethod
    def from_problem(
        cls,
        problem: SecureViewProblem,
        *,
        cache: DerivationCache | None = None,
        store: "DerivationStore | str | None" = None,
        registry: SolverRegistry | None = None,
    ) -> "Planner":
        """Wrap an existing :class:`SecureViewProblem` (no re-derivation)."""
        planner = cls(
            problem.workflow,
            problem.gamma,
            requirements=problem.requirements,
            hidable_attributes=problem.hidable_attributes,
            allow_privatization=problem.allow_privatization,
            cache=cache,
            store=store,
            registry=registry,
        )
        planner._problems[None] = problem
        return planner

    # -- incremental evolution --------------------------------------------------
    def evolve(
        self,
        *,
        add: Iterable[Module] = (),
        remove: Iterable[str] = (),
        replace: Mapping[str, Module] | None = None,
        gamma: int | None = None,
        kind: str | None = None,
        costs: Mapping[str, float] | None = None,
    ) -> "Planner":
        """A planner for an edited workflow that re-derives only what changed.

        Builds a new workflow by applying the edits to this planner's
        workflow — ``remove`` drops modules by name, ``replace`` swaps
        modules in place (keyed by the name being replaced), ``add`` appends
        new modules — and returns a new :class:`Planner` over it **sharing
        this planner's cache** (and therefore its store) and registry.
        Because every requirement derivation is keyed by module content
        fingerprint, the new planner's first solve re-derives exactly the
        modules whose content changed and reuses everything else
        (``CacheStats.reused_modules`` / ``rederived_modules`` show the
        split); verification reads the same content-keyed module packs.

        ``gamma`` / ``kind`` evolve the privacy target instead of (or along
        with) the topology; ``costs`` applies a what-if cost override, which
        never invalidates module artifacts (fingerprints exclude costs).
        Explicitly seeded requirement lists are *not* carried over: they are
        not re-derivable from content, so an evolved planner falls back to
        derivation for every private module of the new workflow.
        """
        replacements = dict(replace or {})
        removed = set(remove)
        added = tuple(add)
        known = set(self.workflow.module_names)
        unknown = (removed | set(replacements)) - known
        if unknown:
            raise WorkflowError(f"evolve: unknown modules {sorted(unknown)!r}")
        overlap = removed & set(replacements)
        if overlap:
            raise WorkflowError(
                f"evolve: modules both removed and replaced {sorted(overlap)!r}"
            )
        modules: list[Module] = []
        for module in self.workflow.modules:
            if module.name in removed:
                continue
            modules.append(replacements.get(module.name, module))
        modules.extend(added)
        if not modules:
            raise WorkflowError("evolve: the edited workflow has no modules left")
        if not (removed or replacements or added):
            # A pure Γ/kind/cost evolution keeps the same workflow object,
            # so its identity-keyed requirement memo stays warm in the
            # shared cache.
            workflow = self.workflow
        else:
            workflow = Workflow(modules, name=self.workflow.name)
        if costs:
            workflow = workflow.with_attribute_costs(dict(costs))
        hidable = self.hidable_attributes
        if hidable is not None:
            hidable = frozenset(hidable) & frozenset(workflow.attribute_names)
        return Planner(
            workflow,
            self.gamma if gamma is None else gamma,
            kind=self.kind if kind is None else kind,
            hidable_attributes=hidable,
            allow_privatization=self.allow_privatization,
            cache=self.cache,
            registry=self.registry,
        )

    # -- instance assembly ------------------------------------------------------
    def _cost_key(self, costs: Mapping[str, float] | None):
        if costs is None:
            return None
        return frozenset(costs.items())

    def problem(self, costs: Mapping[str, float] | None = None) -> SecureViewProblem:
        """The Secure-View instance, derived once and memoized.

        ``costs`` overrides per-attribute hiding costs without re-deriving
        anything: requirement lists depend only on workflow structure and Γ,
        so the cached derivation is reused for every cost scenario.
        """
        key = self._cost_key(costs)
        cached = self._problems.get(key)
        if cached is not None:
            return cached
        requirements = self.cache.requirements(self.workflow, self.gamma, self.kind)
        workflow = self._workflows.get(key)
        if workflow is None:
            workflow = self.workflow.with_attribute_costs(dict(costs or {}))
            self._workflows[key] = workflow
        problem = SecureViewProblem(
            workflow,
            self.gamma,
            requirements,
            hidable_attributes=self.hidable_attributes,
            allow_privatization=self.allow_privatization,
        )
        self._problems[key] = problem
        return problem

    # -- solver discovery -------------------------------------------------------
    def solvers(self, applicable_only: bool = True) -> list[SolverSpec]:
        """Registered solvers, optionally filtered to this instance."""
        if applicable_only:
            return self.registry.applicable(self.problem())
        return self.registry.specs()

    def resolve(self, solver: str = "auto") -> SolverSpec:
        """The spec ``solve`` would dispatch to for this instance."""
        if solver == "auto":
            return self.registry.select(self.problem())
        return self.registry.get(solver)

    # -- solving ----------------------------------------------------------------
    def solve(
        self,
        solver: str = "auto",
        *,
        seed: int | None = None,
        rng: random.Random | None = None,
        costs: Mapping[str, float] | None = None,
        local_search: bool | Sequence[str] = False,
        **options: object,
    ) -> SolveResult:
        """Solve the instance with one registered algorithm.

        The one place a solver name becomes a call: derivation (cached) →
        solver dispatch (timed) → optional local-search post-processing →
        feasibility validation → Γ-privacy certificate (:meth:`verify`).

        ``solver`` is a registry name, or ``"auto"`` for the cheapest
        applicable algorithm on the instance being solved (cost overrides
        included).  ``seed``/``rng`` feed randomized solvers (``rng`` wins)
        and are ignored by deterministic ones.  ``costs`` overrides
        per-attribute hiding costs.  ``local_search`` is ``True`` (both
        passes) or a sequence of :mod:`repro.optim.local_search` pass names.
        Other ``options`` go to the solver, which rejects any it does not
        take with :class:`~repro.exceptions.SolverError`.  A solver whose
        declared constraint kind is not the instance's is refused with
        :class:`~repro.exceptions.SolverError` before it runs.
        """
        problem = self.problem(costs=costs)
        if solver == "auto":
            spec = self.registry.select(problem)
        else:
            spec = self.registry.get(solver)
        if not spec.takes(problem.constraint_kind):
            raise SolverError(
                f"solver {spec.name!r} takes {spec.constraints} constraints; "
                f"this instance has {problem.constraint_kind} constraints"
            )

        kwargs = dict(options)
        if seed is not None:
            kwargs.setdefault("seed", seed)
        if rng is not None:
            kwargs.setdefault("rng", rng)
        kwargs = spec.accepted_kwargs(kwargs)

        start = time.perf_counter()
        solution = spec.fn(problem, **kwargs)
        if local_search:
            passes = ("prune", "swap") if local_search is True else tuple(local_search)
            solution = improve_solution(problem, solution, passes=passes)
        seconds = time.perf_counter() - start
        problem.validate_solution(solution)
        return SolveResult(
            solver=spec.name,
            requested=solver,
            solution=solution,
            cost=solution.cost(),
            guarantee=spec.guarantee_for(problem),
            seconds=seconds,
            certificate=self.verify(solution, problem=problem),
            cache_stats=self.cache.stats(),
        )

    # -- verification -----------------------------------------------------------
    def verify(
        self,
        solution: SecureViewSolution,
        problem: SecureViewProblem | None = None,
    ) -> PrivacyCertificate:
        """Γ-privacy certificate for a solution's view, by Theorems 4 and 8.

        Theorem 4: if hiding ``V̄ ∩ A_i`` makes a private module ``m_i``
        Γ-standalone-private, ``m_i`` is Γ-workflow-private; Theorem 8 adds
        one condition for general workflows, that every public module with
        a hidden attribute is privatized.  When that condition holds, a
        module whose standalone level (one lookup on its compiled pack,
        the module tier's artifact) reaches Γ is certified at Γ without
        building the workflow relation.  A pack holds one row per input
        assignment, so a module with more of them than the work limit is
        left to enumeration.

        A standalone level only bounds the workflow level from below
        (Lemma 1), so any other module falls back to possible-worlds
        enumeration (Definitions 5/6) with early termination at Γ.  A
        module whose enumeration would exceed the work limit is
        undetermined (level ``None``), so a certificate never fails a
        solve.  Levels are capped at Γ, so a reported level of Γ means
        "at least Γ".
        """
        problem = problem if problem is not None else self.problem()
        hidden = solution.hidden_attributes
        visible = frozenset(solution.visible_attributes)
        privatized = frozenset(solution.privatized_modules)
        composes = problem.required_privatizations(hidden) <= privatized
        levels: dict[str, int | None] = {}
        for module in self.workflow.private_modules:
            if (
                composes
                and module.domain_size() <= DEFAULT_WORK_LIMIT
                and self.cache.module_privacy_level(module, visible) >= self.gamma
            ):
                levels[module.name] = self.gamma
                continue
            try:
                level = workflow_privacy_level(
                    self.workflow,
                    module.name,
                    visible,
                    hidden_public_modules=privatized,
                    stop_at=self.gamma,
                )
            except WorkLimitError:
                levels[module.name] = None
            else:
                levels[module.name] = min(level, self.gamma)
        known = [level for level in levels.values() if level is not None]
        if any(level < self.gamma for level in known):
            ok: bool | None = False
        else:
            ok = True if len(known) == len(levels) else None
        return PrivacyCertificate(gamma=self.gamma, ok=ok, module_levels=levels)
