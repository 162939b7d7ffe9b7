"""Exact optima for Secure-View instances.

The paper's approximation factors are all relative to the exact optimum, so
the benchmarks need a trustworthy (if slow) exact solver.  Two are provided:

* :func:`solve_exact_ip` — solve the integral version of the same programs
  the approximation algorithms relax (Figure 3 for cardinality constraints,
  (15)–(17) for set constraints, each in its privatizing form in general
  workflows) with scipy's HiGHS branch-and-bound.  This is the default
  exact baseline.
* :func:`solve_exact_enumeration` — enumerate feasible solutions directly
  (unions of one hidable realization of an option per module), used to
  cross-validate the IP encoding on small instances.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..core.requirements import SetRequirementList
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import SolverError
from .cardinality_ip import build_cardinality_program, x_var
from .set_lp import build_set_program

__all__ = ["solve_exact_ip", "solve_exact_enumeration"]


def solve_exact_ip(problem: SecureViewProblem) -> SecureViewSolution:
    """Exact optimum via the integral version of the paper's programs."""
    if problem.constraint_kind == "set":
        result = build_set_program(problem).solve(integral=True)
    else:
        result = build_cardinality_program(problem).solve(integral=True)
    if not result.optimal:
        raise SolverError("the integer program did not solve")
    hidden = {
        name
        for name in problem.workflow.attribute_names
        if result.values.get(x_var(name), 0.0) >= 0.5
    }
    return problem.finish(hidden, "exact_ip", ip_objective=result.objective)


def _candidate_hidden_sets(
    problem: SecureViewProblem, max_combinations: int
) -> Iterable[frozenset[str]]:
    """Candidate hidden sets from requirement-option combinations."""
    option_sets: list[list[frozenset[str]]] = []
    total = 1
    for module_name, requirement in problem.requirements.items():
        if isinstance(requirement, SetRequirementList):
            options = list(problem.option_sets(module_name))
        else:
            module = problem.workflow.module(module_name)
            inputs = [n for n in module.input_names if n in problem.hidable]
            outputs = [n for n in module.output_names if n in problem.hidable]
            options = [
                frozenset(ins + outs)
                for option in requirement
                for ins in itertools.combinations(inputs, option.alpha)
                for outs in itertools.combinations(outputs, option.beta)
            ]
        option_sets.append(options)
        total *= len(options)
        if total > max_combinations:
            raise SolverError(
                "exact enumeration over requirement options exceeds the limit "
                f"({total} > {max_combinations}); use solve_exact_ip instead"
            )
    for combo in itertools.product(*option_sets):
        yield frozenset().union(*combo)


def solve_exact_enumeration(
    problem: SecureViewProblem, max_combinations: int = 2_000_000
) -> SecureViewSolution:
    """Exact optimum by enumerating requirement-option combinations.

    Every feasible solution is dominated by one whose hidden set is a union
    of one option per module (removing any other attribute keeps it
    feasible), so enumerating option combinations is exhaustive.  Raises
    :class:`SolverError` when the combination count exceeds
    ``max_combinations``.
    """
    problem.require_feasible()
    best = min(_candidate_hidden_sets(problem, max_combinations), key=problem.price)
    return problem.finish(best, "exact_enumeration")
