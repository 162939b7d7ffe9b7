"""Trivial baselines for the Secure-View problem.

None of these carry approximation guarantees; they exist to anchor the
benchmark tables the way system papers anchor theirs:

* :func:`hide_everything` — hide every hidable attribute (and privatize
  whatever that forces).  Always feasible when the instance is feasible at
  all, and an upper bound every algorithm should beat.
* :func:`hide_all_intermediate` — hide all intermediate (module-to-module)
  attributes; mirrors the folklore "hide the plumbing" policy and is not
  always feasible.
* :func:`random_feasible` — add random hidable attributes until every
  requirement is met; averaged over seeds it shows how much structure the
  LP-based algorithms actually exploit.
"""

from __future__ import annotations

import random

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import InfeasibleError

__all__ = ["hide_everything", "hide_all_intermediate", "random_feasible"]


def hide_everything(problem: SecureViewProblem) -> SecureViewSolution:
    """Hide every hidable attribute."""
    hidden = set(problem.hidable_attributes)
    for module_name in problem.requirements:
        if not problem.requirement_satisfied(module_name, hidden):
            raise InfeasibleError(
                f"even hiding every hidable attribute does not satisfy "
                f"module {module_name!r}"
            )
    return problem.finish(hidden, "hide_everything")


def hide_all_intermediate(problem: SecureViewProblem) -> SecureViewSolution:
    """Hide every intermediate attribute (data passed between modules)."""
    workflow = problem.workflow
    hidden = set(workflow.intermediate_attributes) & set(problem.hidable_attributes)
    for module_name in problem.requirements:
        if not problem.requirement_satisfied(module_name, hidden):
            raise InfeasibleError(
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
    if rng is None:
        rng = random.Random(seed)
    # Sorted before any draw: set order follows the per-process string hash,
    # and one seed must give one answer in every process.
    remaining = sorted(problem.hidable_attributes)
    rng.shuffle(remaining)
    hidden: set[str] = set()

    def all_satisfied() -> bool:
        return all(
            problem.requirement_satisfied(module_name, hidden)
            for module_name in problem.requirements
        )

    while not all_satisfied():
        if not remaining:
            raise InfeasibleError(
                "exhausted hidable attributes without satisfying every module"
            )
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
