"""Local-search post-processing for Secure-View solutions.

The paper's algorithms (LP rounding, greedy) can leave slack: attributes
that are hidden but not needed by any module's requirement, or expensive
option choices that a cheaper neighbouring option would cover once the rest
of the solution is fixed.  This module implements two improvement passes
that preserve feasibility:

* **pruning** — repeatedly drop the most expensive hidden attribute whose
  removal keeps every requirement satisfied (and recompute the forced
  privatizations), and
* **option swapping** — for each module, try replacing its currently
  "charged" option by each alternative option, keeping the swap when the
  total cost (including privatization) decreases.

Neither pass can worsen a solution, so all approximation guarantees carry
over; the ablation benchmark measures how much they help each base solver.
``Planner.solve(local_search=...)`` (``repro solve --local-search``) runs
them on the answer of whichever solver it dispatched.
"""

from __future__ import annotations

from typing import Iterable

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution

__all__ = ["prune_solution", "swap_options", "improve_solution"]


def _cost(problem: SecureViewProblem, hidden: set[str]) -> float:
    return problem.solution_cost(hidden, problem.required_privatizations(hidden))


def prune_solution(
    problem: SecureViewProblem,
    solution: SecureViewSolution,
    protected: Iterable[str] = (),
) -> SecureViewSolution:
    """Drop redundant hidden attributes, most expensive first.

    Attributes in ``protected`` are never removed; the option-swapping pass
    uses this to keep the option it just committed to while clearing out the
    attributes it made redundant.
    """
    costs = problem.attribute_costs()
    protected_set = set(protected)
    hidden = set(solution.hidden_attributes)
    improved = True
    while improved:
        improved = False
        # Equal costs go by name: set order follows the per-process string
        # hash, and one instance must prune the same way in every process.
        for name in sorted(hidden, key=lambda item: (-costs[item], item)):
            if name in protected_set:
                continue
            trial = hidden - {name}
            if all(
                problem.requirement_satisfied(module_name, trial)
                for module_name in problem.requirements
            ):
                if _cost(problem, trial) <= _cost(problem, hidden):
                    hidden = trial
                    improved = True
                    break
    return problem.make_solution(
        hidden,
        meta={
            **solution.meta,
            "local_search": "pruned",
            "cost": _cost(problem, hidden),
        },
    )


def swap_options(
    problem: SecureViewProblem, solution: SecureViewSolution
) -> SecureViewSolution:
    """Try swapping each module's option for a cheaper one, then re-prune."""
    hidden = set(solution.hidden_attributes)
    best_cost = _cost(problem, hidden)
    improved = True
    while improved:
        improved = False
        for module_name in problem.requirements:
            for option_attrs in problem.option_sets(module_name):
                trial = hidden | option_attrs
                # Remove anything no longer needed once this option is in,
                # but keep the option itself so the swap can take effect.
                pruned = prune_solution(
                    problem, problem.make_solution(trial), protected=option_attrs
                )
                trial_hidden = set(pruned.hidden_attributes)
                trial_cost = _cost(problem, trial_hidden)
                if trial_cost + 1e-9 < best_cost:
                    hidden = trial_hidden
                    best_cost = trial_cost
                    improved = True
    return problem.make_solution(
        hidden,
        meta={**solution.meta, "local_search": "swapped", "cost": best_cost},
    )


def improve_solution(
    problem: SecureViewProblem,
    solution: SecureViewSolution,
    passes: Iterable[str] = ("prune", "swap"),
) -> SecureViewSolution:
    """Apply the requested improvement passes in order (never worsens cost)."""
    current = solution
    for pass_name in passes:
        if pass_name == "prune":
            current = prune_solution(problem, current)
        elif pass_name == "swap":
            current = swap_options(problem, current)
        else:
            raise ValueError(f"unknown local-search pass {pass_name!r}")
    if current.cost() > solution.cost() + 1e-9:  # pragma: no cover - defensive
        return solution
    return current

