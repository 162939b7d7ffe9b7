"""ℓ_max-approximation for set constraints in all-private workflows.

This is the algorithm of Appendix B.5.1 (Theorem 6, upper bound): the LP

    minimize   Σ_b c_b x_b
    subject to Σ_j r_ij >= 1                        for every module i
               x_b >= r_ij  for every b in I_i^j ∪ O_i^j

is solved fractionally, and every attribute with ``x_b >= 1/ℓ_max`` is
hidden.  Since some option of each module has ``r_ij >= 1/ℓ_i >= 1/ℓ_max``,
all of that option's attributes are hidden, so the rounded solution is
feasible; its cost is at most ``ℓ_max`` times the LP value and hence at most
``ℓ_max`` times the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.requirements import SetRequirementList
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import RequirementError, SolverError
from .lp import LinearProgram, LPSolution, problem_relaxation
from .cardinality_ip import r_var, x_var

__all__ = ["SetConstraintProgram", "build_set_program", "solve_set_lp"]


@dataclass
class SetConstraintProgram:
    """The LP (15)–(17) of Appendix B.5.1 and its problem instance."""

    problem: SecureViewProblem
    program: LinearProgram

    def solve_relaxation(self) -> LPSolution:
        return self.program.solve_relaxation()

    def solve_integer(self) -> LPSolution:
        return self.program.solve_integer()


def build_set_program(
    problem: SecureViewProblem, integral: bool = False
) -> SetConstraintProgram:
    """Build the set-constraint LP/IP for an all-private instance.

    Public modules are allowed in the workflow, but this program ignores
    privatization costs — use :mod:`repro.optim.general_lp` for the general
    problem of Section 5.2.
    """
    if problem.constraint_kind != "set":
        raise RequirementError("build_set_program requires set-constraint lists")

    workflow = problem.workflow
    costs = problem.attribute_costs()
    hidable = set(problem.hidable_attributes)
    program = LinearProgram(name="set-constraints")

    for name in workflow.attribute_names:
        upper = 1.0 if name in hidable else 0.0
        program.add_variable(
            x_var(name), cost=costs[name], lower=0.0, upper=upper, integral=integral
        )

    for module_name, requirement in problem.requirements.items():
        assert isinstance(requirement, SetRequirementList)
        options = list(requirement)
        for j in range(len(options)):
            program.add_variable(r_var(module_name, j), integral=integral)
        program.add_constraint(
            {r_var(module_name, j): 1.0 for j in range(len(options))},
            ">=",
            1.0,
            name=f"select[{module_name}]",
        )
        for j, option in enumerate(options):
            for attribute in sorted(option.attributes):
                program.add_constraint(
                    {x_var(attribute): 1.0, r_var(module_name, j): -1.0},
                    ">=",
                    0.0,
                    name=f"cover[{module_name},{j},{attribute}]",
                )
    return SetConstraintProgram(problem=problem, program=program)


def solve_set_lp(problem: SecureViewProblem) -> SecureViewSolution:
    """ℓ_max-approximation by LP rounding for set constraints (Theorem 6)."""
    lp_solution = problem_relaxation(problem, "set", build_set_program)
    if not lp_solution.optimal:
        raise SolverError("the set-constraint LP relaxation is infeasible")

    lmax = problem.lmax
    threshold = 1.0 / lmax
    hidden = {
        name
        for name in problem.hidable_attributes
        if lp_solution.values.get(x_var(name), 0.0) >= threshold - 1e-9
    }

    # The threshold argument guarantees feasibility; assert it defensively
    # and repair with the cheapest option if numerical noise intervenes.
    costs = problem.attribute_costs()
    repaired = []
    for module_name, requirement in problem.requirements.items():
        if not problem.requirement_satisfied(module_name, hidden):
            assert isinstance(requirement, SetRequirementList)
            option = requirement.cheapest_option(costs)
            hidden |= set(option.attributes)
            repaired.append(module_name)

    privatized = problem.required_privatizations(hidden)
    if privatized and not problem.allow_privatization:
        raise SolverError(
            "rounding hid attributes adjacent to public modules but "
            "privatization is disallowed for this instance"
        )
    solution = SecureViewSolution(
        problem.workflow,
        frozenset(hidden),
        privatized,
        meta={
            "method": "set_lp",
            "lp_objective": lp_solution.objective,
            "lmax": lmax,
            "repaired_modules": repaired,
            "cost": problem.solution_cost(hidden, privatized),
        },
    )
    problem.validate_solution(solution)
    return solution
