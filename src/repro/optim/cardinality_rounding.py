"""Algorithm 1: randomized rounding of the Figure-3 LP relaxation.

This is the O(log n)-approximation of Theorem 5 for the Secure-View problem
with cardinality constraints:

1. solve the LP relaxation of the Figure-3 program,
2. hide every attribute ``b`` independently with probability
   ``min(1, scale * x_b * log n)`` (the paper uses ``scale = 16``),
3. for every module whose requirement is still unsatisfied, add the
   fall-back set ``B_i^min`` — the cheapest α inputs plus β outputs over the
   options of its list (this happens with probability at most ``2/n`` per
   module, so it does not affect the expected approximation factor),
4. for general workflows, privatize every public module adjacent to a hidden
   attribute.

The returned solution's ``meta`` records the LP objective, the rounding
seed, which modules needed the fall-back, and the final cost so that the
benchmarks can report approximation ratios against the exact optimum.
"""

from __future__ import annotations

import math
import random

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..exceptions import RequirementError, SolverError
from .cardinality_ip import STRENGTH_FULL, build_cardinality_program, x_var
from .lp import problem_relaxation

__all__ = ["solve_cardinality_rounding"]


def solve_cardinality_rounding(
    problem: SecureViewProblem,
    seed: int | None = None,
    scale: float = 16.0,
    strength: str = STRENGTH_FULL,
    rng: random.Random | None = None,
) -> SecureViewSolution:
    """Algorithm 1 end to end: LP relaxation + randomized rounding + repair.

    Parameters
    ----------
    problem:
        A cardinality-constraint Secure-View instance.
    seed:
        Seed of the rounding randomness (reproducible benchmarks).
    scale:
        The constant in the rounding probability ``min(1, scale*x_b*log n)``;
        the paper's analysis uses 16, but smaller constants behave well in
        practice and the benchmarks sweep this.
    strength:
        LP strength (see :mod:`repro.optim.cardinality_ip`); only the full
        LP carries the Theorem-5 guarantee.
    rng:
        Explicit random source; takes precedence over ``seed`` so callers
        (e.g. the engine) can thread one generator through a whole sweep.
    """
    if problem.constraint_kind != "cardinality":
        raise RequirementError(
            "solve_cardinality_rounding requires cardinality constraints"
        )
    lp_solution = problem_relaxation(
        problem,
        build_cardinality_program,
        strength=strength,
        with_privatization=problem.privatizing,
    )
    if not lp_solution.optimal:
        raise SolverError("the LP relaxation did not solve")

    if rng is None:
        rng = random.Random(seed)
    n = max(len(problem.workflow), 2)
    log_n = math.log(n)

    hidden: set[str] = set()
    # One draw per hidable attribute in schema order: set order follows the
    # per-process string hash, and one seed must give one answer everywhere.
    for name in problem.workflow.attribute_names:
        if name not in problem.hidable:
            continue
        x_value = lp_solution.values.get(x_var(name), 0.0)
        probability = min(1.0, scale * x_value * log_n)
        if rng.random() < probability:
            hidden.add(name)

    # Repair step: per-module fall-back for unsatisfied requirements.
    repaired: list[str] = []
    for module_name in problem.requirements:
        if not problem.requirement_satisfied(module_name, hidden):
            hidden |= problem.cheapest_option_set(module_name)
            repaired.append(module_name)

    return problem.finish(
        hidden,
        "lp_rounding",
        lp_objective=lp_solution.objective,
        seed=seed,
        scale=scale,
        strength=strength,
        repaired_modules=repaired,
    )
