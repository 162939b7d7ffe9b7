"""Exact optima for Secure-View instances.

The paper's approximation factors are all relative to the exact optimum, so
the benchmarks need a trustworthy (if slow) exact solver.  Two are provided:

* :func:`solve_exact_ip` — solve the integral version of the same programs
  the approximation algorithms relax (Figure 3 for cardinality constraints,
  (15)–(17) for set constraints, each in its privatizing form in general
  workflows) with scipy's HiGHS branch-and-bound.  This is the default
  exact baseline.
* :func:`solve_exact_enumeration` — enumerate feasible solutions directly
  (over requirement-option combinations, falling back to attribute subsets),
  used to cross-validate the IP encoding on small instances.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..core.requirements import CardinalityRequirementList, SetRequirementList
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import InfeasibleError, SolverError
from .cardinality_ip import build_cardinality_program, x_var
from .set_lp import build_set_program

__all__ = ["solve_exact_ip", "solve_exact_enumeration", "exact_optimum_cost"]


def solve_exact_ip(problem: SecureViewProblem) -> SecureViewSolution:
    """Exact optimum via the integral version of the paper's programs."""
    if problem.constraint_kind == "set":
        program = build_set_program(problem, integral=True)
    else:
        program = build_cardinality_program(problem, integral=True)
    result = program.solve_integer()
    if not result.optimal:
        raise InfeasibleError("the Secure-View instance admits no feasible solution")
    hidden = {
        name
        for name in problem.workflow.attribute_names
        if result.values.get(x_var(name), 0.0) >= 0.5
    }
    return problem.finish(hidden, "exact_ip", ip_objective=result.objective)


def _candidate_hidden_sets(
    problem: SecureViewProblem, max_combinations: int
) -> Iterable[set[str]]:
    """Candidate hidden sets from requirement-option combinations."""
    module_names = list(problem.requirements)
    option_sets: list[list[set[str]]] = []
    total = 1
    hidable = set(problem.hidable_attributes)
    for module_name in module_names:
        requirement = problem.requirements[module_name]
        module = problem.workflow.module(module_name)
        options: list[set[str]] = []
        if isinstance(requirement, SetRequirementList):
            for option in requirement:
                attributes = set(option.attributes)
                if attributes <= hidable:
                    options.append(attributes)
        elif isinstance(requirement, CardinalityRequirementList):
            inputs = [n for n in module.input_names if n in hidable]
            outputs = [n for n in module.output_names if n in hidable]
            for option in requirement:
                if option.alpha > len(inputs) or option.beta > len(outputs):
                    continue
                for ins in itertools.combinations(inputs, option.alpha):
                    for outs in itertools.combinations(outputs, option.beta):
                        options.append(set(ins) | set(outs))
        if not options:
            raise InfeasibleError(
                f"module {module_name!r} has no realizable requirement option"
            )
        option_sets.append(options)
        total *= len(options)
        if total > max_combinations:
            raise SolverError(
                "exact enumeration over requirement options exceeds the limit "
                f"({total} > {max_combinations}); use solve_exact_ip instead"
            )
    for combo in itertools.product(*option_sets):
        hidden: set[str] = set()
        for chosen in combo:
            hidden |= chosen
        yield hidden


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
    best: tuple[float, set[str]] | None = None
    for hidden in _candidate_hidden_sets(problem, max_combinations):
        privatized = problem.required_privatizations(hidden)
        if privatized and not problem.allow_privatization:
            continue
        cost = problem.solution_cost(hidden, privatized)
        if best is None or cost < best[0]:
            best = (cost, hidden)
    if best is None:
        raise InfeasibleError("the Secure-View instance admits no feasible solution")
    return problem.finish(best[1], "exact_enumeration")


def exact_optimum_cost(problem: SecureViewProblem) -> float:
    """Cost of the exact optimum (convenience wrapper used by benchmarks)."""
    return solve_exact_ip(problem).cost()
