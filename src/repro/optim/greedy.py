"""Greedy algorithms for the Secure-View problem.

Two greedy strategies appear in the paper:

* the **(γ+1)-approximation** for workflows with γ-bounded data sharing
  (Theorem 7): every module independently picks its cheapest requirement
  option and the hidden set is the union of the picks.  Because an attribute
  is produced by one module and consumed by at most γ modules, an optimal
  solution pays for each hidden attribute at most γ+1 times, giving the
  bound.
* the **union-of-standalone-optima** baseline of Example 5, which is the
  same computation but presented as a baseline: the example shows its cost
  can be Ω(n) times the workflow optimum once data sharing is unbounded.

The same function implements both; the baseline name is kept as an alias so
benchmark output reads like the paper.
"""

from __future__ import annotations

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution

__all__ = ["solve_greedy", "union_of_standalone_optima", "greedy_guarantee"]


def solve_greedy(problem: SecureViewProblem) -> SecureViewSolution:
    """Per-module cheapest-option greedy; (γ+1)-approximate under bounded sharing."""
    hidden: set[str] = set()
    per_module: dict[str, list[str]] = {}
    for module_name in problem.requirements:
        chosen = problem.cheapest_option_set(module_name)
        per_module[module_name] = sorted(chosen)
        hidden |= chosen
    return problem.finish(
        hidden,
        "greedy",
        per_module_choice=per_module,
        gamma=problem.workflow.data_sharing_degree(),
        guarantee=greedy_guarantee(problem),
    )


def union_of_standalone_optima(problem: SecureViewProblem) -> SecureViewSolution:
    """The Example-5 baseline: union of each module's cheapest safe option.

    Identical to :func:`solve_greedy`; kept as a separate name so that
    benchmark tables can label the baseline the way the paper does.
    """
    solution = solve_greedy(problem)
    solution.meta["method"] = "union_of_standalone_optima"
    return solution


def greedy_guarantee(problem: SecureViewProblem) -> int:
    """The (γ+1) approximation factor Theorem 7 guarantees for this instance."""
    return problem.workflow.data_sharing_degree() + 1
