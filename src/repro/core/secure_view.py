"""The workflow Secure-View optimization problem (Sections 4.2 and 5.2).

A :class:`SecureViewProblem` packages everything the optimization layer
needs: the workflow, the privacy parameter Γ, a requirement list per private
module (set or cardinality constraints), and which attributes may be hidden.
Feasibility of a candidate solution is:

* **all-private workflows** — for every private module some option of its
  requirement list is covered by the hidden attribute set;
* **general workflows** — additionally, every *public* module with a hidden
  input or output attribute must be privatized (this is constraint (21) of
  the general LP in Appendix C.4), and privatized modules contribute their
  privatization cost.

The problem holds no solver: the algorithms in :mod:`repro.optim` take it
as their first argument, and ``repro.engine.Planner.solve`` picks one by
registry name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..exceptions import RequirementError
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
        Whether public modules may be privatized (Section 5).  When false
        and the workflow has public modules adjacent to hidden attributes,
        solutions touching them are infeasible.
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
    def is_all_private(self) -> bool:
        return self.workflow.is_all_private

    @property
    def lmax(self) -> int:
        """``l_max``: the longest requirement list (drives approximation factors)."""
        return max(len(req) for req in self.requirements.values())

    def attribute_costs(self) -> dict[str, float]:
        return {attr.name: attr.cost for attr in self.workflow.schema}

    def privatization_costs(self) -> dict[str, float]:
        return {
            module.name: module.privatization_cost
            for module in self.workflow.public_modules
        }

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
        """Public modules forced into ``P̄`` by hiding these attributes."""
        hidden_set = set(hidden)
        return frozenset(
            module.name
            for module in self.workflow.public_modules
            if hidden_set & set(module.attribute_names)
        )

    def is_feasible(
        self,
        hidden_attributes: Iterable[str],
        privatized_modules: Iterable[str] = (),
    ) -> bool:
        """Full feasibility check for a candidate (V̄, P̄)."""
        hidden_set = set(hidden_attributes)
        if not hidden_set <= set(self.hidable_attributes):
            return False
        for module_name in self.requirements:
            if not self.requirement_satisfied(module_name, hidden_set):
                return False
        needed = self.required_privatizations(hidden_set)
        if not needed:
            return True
        if not self.allow_privatization:
            return False
        return needed <= set(privatized_modules)

    def validate_solution(self, solution: SecureViewSolution) -> None:
        """Raise :class:`RequirementError` if the solution is infeasible."""
        if not self.is_feasible(
            solution.hidden_attributes, solution.privatized_modules
        ):
            raise RequirementError("solution does not satisfy the Secure-View instance")

    def solution_cost(
        self,
        hidden_attributes: Iterable[str],
        privatized_modules: Iterable[str] = (),
    ) -> float:
        """``c(V̄) + c(P̄)`` for a candidate solution.

        Summed exactly (``math.fsum``): set order follows the per-process
        string hash, and a plain float sum in that order could differ in
        the last bit between processes solving the same instance.
        """
        costs = self.attribute_costs()
        module_costs = self.privatization_costs()
        return math.fsum(
            [costs[name] for name in set(hidden_attributes)]
            + [module_costs[name] for name in set(privatized_modules)]
        )

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

