"""Optimization algorithms for the Secure-View problem.

The solvers mirror Sections 4–5 of the paper:

=====================  =============================================  ==========================
registry name          algorithm                                      guarantee
=====================  =============================================  ==========================
``exact`` / ``exact_ip``  integral Figure-3 or (15)–(17) program        optimal
``exact_enum``         enumeration over requirement options           optimal
``lp_rounding``        Algorithm 1 on the Figure-3 LP                 O(log n) (Theorem 5)
``set_lp``             ℓ_max threshold rounding of (15)–(17)          ℓ_max (Theorem 6)
``greedy``             per-module cheapest option                     γ+1 (Theorem 7)
``union_standalone``   union of standalone optima (Example 5)         γ+1 (Theorem 7)
``general_lp``         the same rounding of (19)–(23)                 ℓ_max (Section 5.2)
``hide_everything``    baseline                                        —
``hide_intermediate``  baseline                                        —
``random``             baseline                                        —
=====================  =============================================  ==========================

There is one program per constraint kind: the Figure-3 program for
cardinality constraints and the set program (15)–(17) for set
constraints.  The general LP (19)–(23) is the set program's privatizing
form, with a ``w_i`` per public module and constraint (21); both builders
write those variables and rows through one helper, and price
privatization by default exactly when the workflow has public modules and
privatization is allowed.  Greedy, Algorithm 1's fall-back, the set-LP
repair and local search pick options through
``SecureViewProblem.option_sets``, and every solver returns through
``SecureViewProblem.finish``.

The names are the :mod:`repro.engine` registry's: ``Planner.solve`` turns
them into calls.  The :mod:`.local_search` passes post-process any
solver's answer (``Planner.solve(local_search=...)``).
"""

from .baselines import hide_all_intermediate, hide_everything, random_feasible
from .cardinality_ip import (
    STRENGTH_FULL,
    STRENGTH_NO_CAP,
    STRENGTH_NO_SUM,
    build_cardinality_program,
)
from .cardinality_rounding import (
    cheapest_fallback_set,
    expected_rounding_cost,
    solve_cardinality_rounding,
)
from .exact import exact_optimum_cost, solve_exact_enumeration, solve_exact_ip
from .greedy import greedy_guarantee, solve_greedy, union_of_standalone_optima
from .local_search import improve_solution, prune_solution, swap_options
from .lp import Constraint, LinearProgram, LPSolution, Variable
from .set_lp import build_set_program, solve_general_lp, solve_set_lp

__all__ = [
    "LinearProgram",
    "LPSolution",
    "Variable",
    "Constraint",
    "build_cardinality_program",
    "STRENGTH_FULL",
    "STRENGTH_NO_CAP",
    "STRENGTH_NO_SUM",
    "solve_cardinality_rounding",
    "cheapest_fallback_set",
    "expected_rounding_cost",
    "build_set_program",
    "solve_set_lp",
    "solve_general_lp",
    "solve_greedy",
    "union_of_standalone_optima",
    "greedy_guarantee",
    "solve_exact_ip",
    "solve_exact_enumeration",
    "exact_optimum_cost",
    "hide_everything",
    "hide_all_intermediate",
    "random_feasible",
    "improve_solution",
    "prune_solution",
    "swap_options",
]

