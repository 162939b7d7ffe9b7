"""The Secure-View problem in general workflows (Section 5.2, Appendix C.4).

In workflows that mix private and public modules, a solution may also
*privatize* public modules (hide their identity) at cost ``c(m)``.  A public
module must be privatized whenever one of its input or output attributes is
hidden — otherwise its known functionality lets the adversary undo the
hiding (Example 7).

For set constraints the paper gives an ℓ_max-approximation via the LP
(19)–(23):

    minimize   Σ_b c_b x_b + Σ_{public i} c_i w_i
    subject to Σ_j r_ij >= 1                 for every private module i
               x_b >= r_ij                   for every b in I_i^j ∪ O_i^j
               w_i >= x_b                     for every public i, b in I_i ∪ O_i

and rounds with the ``1/ℓ_max`` threshold.  The same builder also supports
the cardinality variant (no approximation guarantee exists — Theorem 10
shows the problem is label-cover hard — so the rounding there is exposed as
a heuristic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.requirements import SetRequirementList
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import RequirementError, SolverError
from .cardinality_ip import w_var, x_var, r_var
from .cardinality_rounding import solve_cardinality_rounding
from .lp import LinearProgram, LPSolution, problem_relaxation

__all__ = [
    "GeneralProgram",
    "build_general_set_program",
    "solve_general_lp",
]


@dataclass
class GeneralProgram:
    """The general-workflow LP (19)–(23) and its problem instance."""

    problem: SecureViewProblem
    program: LinearProgram

    def solve_relaxation(self) -> LPSolution:
        return self.program.solve_relaxation()

    def solve_integer(self) -> LPSolution:
        return self.program.solve_integer()


def build_general_set_program(
    problem: SecureViewProblem, integral: bool = False
) -> GeneralProgram:
    """Build the LP (19)–(23) for set constraints with privatization."""
    if problem.constraint_kind != "set":
        raise RequirementError(
            "build_general_set_program requires set-constraint lists"
        )
    workflow = problem.workflow
    costs = problem.attribute_costs()
    hidable = set(problem.hidable_attributes)
    program = LinearProgram(name="general-set-constraints")

    for name in workflow.attribute_names:
        upper = 1.0 if name in hidable else 0.0
        program.add_variable(
            x_var(name), cost=costs[name], lower=0.0, upper=upper, integral=integral
        )
    for module in workflow.public_modules:
        program.add_variable(
            w_var(module.name), cost=module.privatization_cost, integral=integral
        )

    # Constraints (19)-(20): requirement coverage of private modules.
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

    # Constraint (21): hiding an attribute of a public module privatizes it.
    for module in workflow.public_modules:
        for attribute in module.attribute_names:
            program.add_constraint(
                {w_var(module.name): 1.0, x_var(attribute): -1.0},
                ">=",
                0.0,
                name=f"privatize[{module.name},{attribute}]",
            )
    return GeneralProgram(problem=problem, program=program)


def solve_general_lp(
    problem: SecureViewProblem,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> SecureViewSolution:
    """ℓ_max-approximation (set constraints) / heuristic (cardinality).

    For set constraints this is the rounding of Appendix C.4: hide every
    attribute with ``x_b >= 1/ℓ_max`` and privatize every public module with
    ``w_i >= 1/ℓ_max`` (equivalently, adjacent to a hidden attribute).  For
    cardinality constraints it falls back to Algorithm 1 on the Figure-3 LP
    augmented with privatization variables — a heuristic, as no approximation
    guarantee is possible in that regime (Theorem 10).
    """
    if not problem.allow_privatization and problem.workflow.public_modules:
        raise SolverError(
            "the general solver requires privatization to be allowed"
        )
    if problem.constraint_kind == "cardinality":
        return solve_cardinality_rounding(problem, seed=seed, rng=rng)

    lp_solution = problem_relaxation(problem, "general", build_general_set_program)
    if not lp_solution.optimal:
        raise SolverError("the general LP relaxation is infeasible")

    lmax = problem.lmax
    threshold = 1.0 / lmax
    hidden = {
        name
        for name in problem.hidable_attributes
        if lp_solution.values.get(x_var(name), 0.0) >= threshold - 1e-9
    }

    costs = problem.attribute_costs()
    repaired = []
    for module_name, requirement in problem.requirements.items():
        if not problem.requirement_satisfied(module_name, hidden):
            assert isinstance(requirement, SetRequirementList)
            option = requirement.cheapest_option(costs)
            hidden |= set(option.attributes)
            repaired.append(module_name)

    privatized = problem.required_privatizations(hidden)
    solution = SecureViewSolution(
        problem.workflow,
        frozenset(hidden),
        privatized,
        meta={
            "method": "general_lp",
            "lp_objective": lp_solution.objective,
            "lmax": lmax,
            "repaired_modules": repaired,
            "cost": problem.solution_cost(hidden, privatized),
        },
    )
    problem.validate_solution(solution)
    return solution
