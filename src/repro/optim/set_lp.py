"""ℓ_max-approximation for set constraints (Theorem 6 and Section 5.2).

This is the algorithm of Appendix B.5.1 (Theorem 6, upper bound): the LP
(15)–(17)

    minimize   Σ_b c_b x_b
    subject to Σ_j r_ij >= 1                        for every module i
               x_b >= r_ij  for every b in I_i^j ∪ O_i^j

is solved fractionally, and every attribute with ``x_b >= 1/ℓ_max`` is
hidden.  Since some option of each module has ``r_ij >= 1/ℓ_i >= 1/ℓ_max``,
all of that option's attributes are hidden, so the rounded solution is
feasible; its cost is at most ``ℓ_max`` times the LP value and hence at most
``ℓ_max`` times the optimum.

In workflows that mix private and public modules, a solution may also
*privatize* public modules (hide their identity) at cost ``c(m)``.  A public
module must be privatized whenever one of its input or output attributes is
hidden — otherwise its known functionality lets the adversary undo the
hiding (Example 7).  The general LP (19)–(23) of Appendix C.4 is this same
program in its privatizing form: it adds ``Σ_{public i} c_i w_i`` to the
objective and the rows

    w_i >= x_b                     for every public i, b in I_i ∪ O_i

(constraint (21)).  Without public modules the two forms are one program.
The same threshold rounds both; privatizing every public module adjacent
to a hidden attribute is what ``w_i >= 1/ℓ_max`` forces.

``set_lp`` rounds the program without privatization costs, ``general_lp``
the default form, which prices privatization exactly when the workflow has
public modules and privatization is allowed.  For cardinality constraints
``general_lp`` falls back to Algorithm 1 on the Figure-3 LP with
privatization variables — a heuristic, as Theorem 10 shows the problem is
label-cover hard and rules out an approximation guarantee.
"""

from __future__ import annotations

import random

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import SolverError
from .cardinality_ip import hiding_program, privatizing, r_var, x_var
from .cardinality_rounding import solve_cardinality_rounding
from .lp import LinearProgram, problem_relaxation

__all__ = ["build_set_program", "solve_set_lp", "solve_general_lp"]


def build_set_program(
    problem: SecureViewProblem,
    integral: bool = False,
    with_privatization: bool | None = None,
) -> LinearProgram:
    """Build the set-constraint LP/IP (15)–(17).

    With privatization it is the general LP (19)–(23): ``w_i`` for every
    public module and constraint (21).  ``with_privatization`` defaults to
    true exactly when the workflow has public modules and the problem
    allows privatization.
    """

    def requirement_rows(program, module_name, requirement):
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

    return hiding_program(
        problem, "set", integral, with_privatization, requirement_rows
    )


def _round_threshold(
    problem: SecureViewProblem, method: str, with_privatization: bool
) -> SecureViewSolution:
    """Hide every ``x_b >= 1/ℓ_max`` of the set program's relaxation."""
    lp_solution = problem_relaxation(
        problem, build_set_program, with_privatization=with_privatization
    )
    if not lp_solution.optimal:
        raise SolverError("the set-constraint LP relaxation is infeasible")

    lmax = problem.lmax
    threshold = 1.0 / lmax
    hidden = {
        name
        for name in problem.hidable_attributes
        if lp_solution.values.get(x_var(name), 0.0) >= threshold - 1e-9
    }
    # The threshold argument guarantees feasibility; repair with the
    # cheapest option if numerical noise intervenes.
    repaired = []
    for module_name in problem.requirements:
        if not problem.requirement_satisfied(module_name, hidden):
            hidden |= problem.cheapest_option_set(module_name)
            repaired.append(module_name)
    return problem.finish(
        hidden,
        method,
        lp_objective=lp_solution.objective,
        lmax=lmax,
        repaired_modules=repaired,
    )


def solve_set_lp(problem: SecureViewProblem) -> SecureViewSolution:
    """ℓ_max-approximation by LP rounding for set constraints (Theorem 6)."""
    return _round_threshold(problem, "set_lp", with_privatization=False)


def solve_general_lp(
    problem: SecureViewProblem,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> SecureViewSolution:
    """ℓ_max-approximation (set constraints) / heuristic (cardinality).

    For set constraints this is the rounding of Appendix C.4 on the general
    LP (19)–(23).  For cardinality constraints it is Algorithm 1 on the
    Figure-3 LP augmented with privatization variables.
    """
    if not problem.allow_privatization and problem.workflow.public_modules:
        raise SolverError("the general solver requires privatization to be allowed")
    if problem.constraint_kind == "cardinality":
        return solve_cardinality_rounding(problem, seed=seed, rng=rng)
    return _round_threshold(
        problem, "general_lp", with_privatization=privatizing(problem)
    )
