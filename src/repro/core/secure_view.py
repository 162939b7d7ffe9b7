"""The workflow Secure-View optimization problem (Sections 4.2 and 5.2).

A :class:`SecureViewProblem` packages everything the optimization layer
needs: the workflow, the privacy parameter Γ, a requirement list per private
module (set or cardinality constraints), and which attributes may be hidden.
It also holds the one feasibility rule every solver reads, computed once
when the problem is built:

* **the hidable set** :attr:`~SecureViewProblem.hidable` — the declared
  ``hidable_attributes``, minus every attribute of a public module when
  privatization is disallowed: by Theorem 8 hiding one forces the module
  to be privatized;
* **the price** of a hidden set (:meth:`~SecureViewProblem.price`) — its
  attribute costs plus the costs of the privatizations it forces
  (constraint (21) of the general LP in Appendix C.4);
* **privatization pricing** (:attr:`~SecureViewProblem.privatizing`) —
  whether programs carry privatization variables at all;
* **infeasibility** — an instance is infeasible exactly when some private
  module has no option in :meth:`~SecureViewProblem.option_sets`, and
  every solver then raises :class:`~repro.exceptions.InfeasibleError`
  (:meth:`~SecureViewProblem.require_feasible`).

The problem holds no solver: the algorithms in :mod:`repro.optim` take it
as their first argument, and ``repro.engine.Planner.solve`` picks one by
registry name.  It does hold the two steps they all share: the option rule
(:meth:`SecureViewProblem.option_sets`) and the finisher
(:meth:`SecureViewProblem.finish`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..exceptions import InfeasibleError, RequirementError
from .composition import privatization_closure
from .costs import solution_cost
from .requirements import (
    CardinalityRequirementList,
    RequirementList,
    SetRequirementList,
    derive_workflow_requirements,
)
from .view import SecureViewSolution
from .workflow import Workflow

__all__ = ["SecureViewProblem"]


@dataclass
class SecureViewProblem:
    """An instance of the (workflow) Secure-View optimization problem.

    Attributes
    ----------
    workflow:
        The workflow whose provenance view is being secured.
    gamma:
        The privacy requirement Γ (recorded for reporting; requirement lists
        already encode what Γ demands of each module).
    requirements:
        Mapping from private-module name to its requirement list.  All lists
        must be of the same kind (all set constraints or all cardinality
        constraints).
    hidable_attributes:
        Attributes allowed to be hidden; defaults to every workflow
        attribute.
    allow_privatization:
        Whether public modules may be privatized (Section 5).  When false,
        no attribute of a public module is in :attr:`hidable`.

    The declared fields stay as given; ``__post_init__`` derives the rule
    from them once.
    """

    workflow: Workflow
    gamma: int
    requirements: Mapping[str, RequirementList]
    hidable_attributes: frozenset[str] | None = None
    allow_privatization: bool = True
    meta: dict = field(default_factory=dict)
    #: LP relaxations solved for this problem, keyed by program (see
    #: ``repro.optim.lp.problem_relaxation``).  A relaxation depends on the
    #: problem only, never on a seed, so every seed rounds one solve.
    _relaxations: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: The attributes a solution may hide: ``hidable_attributes``, minus
    #: every attribute of a public module when privatization is disallowed.
    hidable: frozenset[str] = field(init=False, repr=False, compare=False)
    #: Whether programs price privatization: the workflow has public
    #: modules and privatizing them is allowed.
    privatizing: bool = field(init=False, repr=False, compare=False)
    #: Each private module's :meth:`option_sets`, in requirement order.
    _options: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.requirements:
            raise RequirementError("a Secure-View problem needs requirement lists")
        kinds = {type(req) for req in self.requirements.values()}
        if len(kinds) > 1:
            raise RequirementError(
                "requirement lists must all be set constraints or all "
                "cardinality constraints"
            )
        for name, req in self.requirements.items():
            module = self.workflow.module(name)
            if not module.private:
                raise RequirementError(
                    f"module {name!r} is public; only private modules carry "
                    "privacy requirements"
                )
            req.validate_against(module)
        if self.hidable_attributes is None:
            self.hidable_attributes = frozenset(self.workflow.attribute_names)
        else:
            unknown = set(self.hidable_attributes) - set(self.workflow.attribute_names)
            if unknown:
                raise RequirementError(
                    f"unknown hidable attributes {sorted(unknown)!r}"
                )
            self.hidable_attributes = frozenset(self.hidable_attributes)
        hidable = self.hidable_attributes
        if not self.allow_privatization:
            hidable -= {
                name
                for module in self.workflow.public_modules
                for name in module.attribute_names
            }
        self.hidable = hidable
        self.privatizing = self.allow_privatization and bool(
            self.workflow.public_modules
        )
        costs = self.attribute_costs()
        self._options = {
            name: tuple(self._realize(name, costs)) for name in self.requirements
        }

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_standalone_analysis(
        cls,
        workflow: Workflow,
        gamma: int,
        kind: str = "set",
        allow_privatization: bool = True,
        backend: str | None = None,
    ) -> "SecureViewProblem":
        """Build a problem by deriving requirement lists from the modules.

        Uses standalone privacy analysis (Section 3) on each private module;
        by Theorems 4/8 satisfying these lists yields Γ-workflow-privacy.
        """
        requirements = derive_workflow_requirements(
            workflow, gamma, kind=kind, backend=backend
        )
        return cls(
            workflow,
            gamma,
            requirements,
            allow_privatization=allow_privatization,
        )

    # -- basic properties ----------------------------------------------------------
    @property
    def constraint_kind(self) -> str:
        """``"set"`` or ``"cardinality"``."""
        first = next(iter(self.requirements.values()))
        return "set" if isinstance(first, SetRequirementList) else "cardinality"

    @property
    def lmax(self) -> int:
        """``l_max``: the longest requirement list (drives approximation factors)."""
        return max(len(req) for req in self.requirements.values())

    def attribute_costs(self) -> dict[str, float]:
        return {attr.name: attr.cost for attr in self.workflow.schema}

    # -- feasibility ------------------------------------------------------------------
    def requirement_satisfied(self, module_name: str, hidden: Iterable[str]) -> bool:
        """Is module ``module_name``'s requirement met by the hidden set?"""
        requirement = self.requirements[module_name]
        hidden_set = set(hidden)
        if isinstance(requirement, SetRequirementList):
            return requirement.satisfied_by(hidden_set)
        if isinstance(requirement, CardinalityRequirementList):
            return requirement.satisfied_by(
                hidden_set, self.workflow.module(module_name)
            )
        raise RequirementError(f"unsupported requirement type {type(requirement)!r}")

    def required_privatizations(self, hidden: Iterable[str]) -> frozenset[str]:
        """Public modules forced into ``P̄`` by hiding these attributes.

        Theorem 8's rule, :func:`~repro.core.composition.privatization_closure`.
        """
        return privatization_closure(self.workflow, hidden)

    def is_feasible(
        self,
        hidden_attributes: Iterable[str],
        privatized_modules: Iterable[str] = (),
    ) -> bool:
        """Full feasibility check for a candidate (V̄, P̄)."""
        hidden_set = set(hidden_attributes)
        return (
            hidden_set <= self.hidable
            and all(
                self.requirement_satisfied(module_name, hidden_set)
                for module_name in self.requirements
            )
            and self.required_privatizations(hidden_set) <= set(privatized_modules)
        )

    def option_sets(self, module_name: str) -> tuple[frozenset[str], ...]:
        """The cheapest hidable attribute set realizing each option of a module.

        One set per realizable option, in list order: a set option's own
        attributes when all of them are in :attr:`hidable`; for an
        ``(α, β)`` option, the α cheapest hidable inputs and the β cheapest
        hidable outputs (equal costs keep schema order).  Options the
        hidable attributes cannot realize are skipped.
        """
        return self._options[module_name]

    def _realize(
        self, module_name: str, costs: Mapping[str, float]
    ) -> Iterator[frozenset[str]]:
        requirement = self.requirements[module_name]
        hidable = self.hidable
        if isinstance(requirement, SetRequirementList):
            for option in requirement:
                if option.attributes <= hidable:
                    yield option.attributes
            return
        module = self.workflow.module(module_name)
        inputs = sorted(
            (name for name in module.input_names if name in hidable),
            key=costs.__getitem__,
        )
        outputs = sorted(
            (name for name in module.output_names if name in hidable),
            key=costs.__getitem__,
        )
        for option in requirement:
            if option.alpha <= len(inputs) and option.beta <= len(outputs):
                yield frozenset(inputs[: option.alpha] + outputs[: option.beta])

    def require_feasible(self) -> None:
        """Raise :class:`InfeasibleError` when some private module has no option.

        Otherwise the instance is feasible: one of :meth:`option_sets` per
        module meets every list, and any privatization those sets force is
        allowed, since they lie in :attr:`hidable`.
        """
        for module_name, options in self._options.items():
            if not options:
                raise InfeasibleError(
                    f"module {module_name!r} has no option the hidable "
                    "attributes realize"
                )

    def cheapest_option_set(self, module_name: str) -> frozenset[str]:
        """The cheapest of :meth:`option_sets`, the first one on ties.

        Theorem 7's greedy pick, Algorithm 1's fall-back ``B_i^min`` and the
        repair of a threshold rounding.  Raises :class:`InfeasibleError` on
        an infeasible instance.
        """
        self.require_feasible()
        costs = self.attribute_costs()
        return min(
            self._options[module_name],
            key=lambda names: math.fsum(costs[name] for name in names),
        )

    def price(self, hidden: Iterable[str]) -> float:
        """``c(V̄) + c(P̄)``: ``hidden``'s costs and the privatizations it forces.

        Summed by :func:`~repro.core.costs.solution_cost` (``math.fsum``),
        so one hidden set has one price in every process.
        """
        hidden = frozenset(hidden)
        return solution_cost(
            self.workflow, hidden, self.required_privatizations(hidden)
        )

    def finish(
        self, hidden: Iterable[str], method: str, **meta: object
    ) -> SecureViewSolution:
        """A solver's answer: ``hidden`` and the privatizations it forces.

        Raises :class:`InfeasibleError` on an infeasible instance.  ``meta``
        records ``method``, the solver's extra entries and the cost; the
        solution is validated before it is returned.
        """
        self.require_feasible()
        solution = self.make_solution(hidden, meta={"method": method, **meta})
        solution.meta["cost"] = solution.cost()
        self.validate_solution(solution)
        return solution

    def validate_solution(self, solution: SecureViewSolution) -> None:
        """Raise :class:`RequirementError` if the solution is infeasible."""
        if not self.is_feasible(
            solution.hidden_attributes, solution.privatized_modules
        ):
            raise RequirementError("solution does not satisfy the Secure-View instance")

    def make_solution(
        self,
        hidden_attributes: Iterable[str],
        privatized_modules: Iterable[str] | None = None,
        meta: dict | None = None,
    ) -> SecureViewSolution:
        """Package a hidden set (and implied privatizations) as a solution.

        If ``privatized_modules`` is omitted, the minimal privatization set
        forced by the hidden attributes is used.
        """
        hidden = frozenset(hidden_attributes)
        privatized = (
            frozenset(privatized_modules)
            if privatized_modules is not None
            else self.required_privatizations(hidden)
        )
        return SecureViewSolution(self.workflow, hidden, privatized, meta or {})

