"""Trivial baselines for the Secure-View problem.

None of these carry approximation guarantees; they exist to anchor the
benchmark tables the way system papers anchor theirs:

* :func:`hide_everything` — hide every hidable attribute (and privatize
  whatever that forces).  Feasible exactly when the instance is, and an
  upper bound every algorithm should beat.
* :func:`hide_all_intermediate` — hide all intermediate (module-to-module)
  attributes; mirrors the folklore "hide the plumbing" policy, which can
  leave a module unsatisfied on a feasible instance.
* :func:`random_feasible` — add random hidable attributes until every
  requirement is met; averaged over seeds it shows how much structure the
  LP-based algorithms actually exploit.
"""

from __future__ import annotations

import random

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import SolverError

__all__ = ["hide_everything", "hide_all_intermediate", "random_feasible"]


def hide_everything(problem: SecureViewProblem) -> SecureViewSolution:
    """Hide every hidable attribute."""
    return problem.finish(problem.hidable, "hide_everything")


def hide_all_intermediate(problem: SecureViewProblem) -> SecureViewSolution:
    """Hide every intermediate attribute (data passed between modules).

    Raises :class:`~repro.exceptions.InfeasibleError` on an infeasible
    instance and :class:`~repro.exceptions.SolverError` when the policy
    leaves some module of a feasible one unsatisfied.
    """
    problem.require_feasible()
    hidden = set(problem.workflow.intermediate_attributes) & problem.hidable
    for module_name in problem.requirements:
        if not problem.requirement_satisfied(module_name, hidden):
            raise SolverError(
                "hiding all intermediate attributes does not satisfy module "
                f"{module_name!r}"
            )
    return problem.finish(hidden, "hide_all_intermediate")


def random_feasible(
    problem: SecureViewProblem,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> SecureViewSolution:
    """Add random hidable attributes until every requirement is satisfied.

    ``rng`` takes precedence over ``seed`` when both are given.
    """
    problem.require_feasible()
    if rng is None:
        rng = random.Random(seed)
    # Sorted before any draw: set order follows the per-process string hash,
    # and one seed must give one answer in every process.
    remaining = sorted(problem.hidable)
    rng.shuffle(remaining)
    hidden: set[str] = set()

    def all_satisfied() -> bool:
        return all(
            problem.requirement_satisfied(module_name, hidden)
            for module_name in problem.requirements
        )

    # Hiding every hidable attribute satisfies a feasible instance.
    while not all_satisfied():
        hidden.add(remaining.pop())
    # Drop attributes that are not needed (reverse scan keeps it deterministic
    # for a given seed).
    for name in sorted(sorted(hidden), key=lambda item: rng.random()):
        trial = hidden - {name}
        if all(
            problem.requirement_satisfied(module_name, trial)
            for module_name in problem.requirements
        ):
            hidden = trial
    return problem.finish(hidden, "random_feasible", seed=seed)
