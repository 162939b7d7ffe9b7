"""Registry adapters for every algorithm exported from :mod:`repro.optim`.

Importing this module (which :mod:`repro.engine` does eagerly) populates the
default :class:`~repro.engine.registry.SolverRegistry` with the paper's
algorithms, the exhaustive exact solvers and the benchmark baselines, each
annotated with the constraint kind it handles, its workflow scope, its
randomization status and its approximation guarantee.  The ``cost_rank``
ordering makes ``auto`` the paper's case analysis: Algorithm-1 LP rounding
for cardinality constraints (Theorem 5), the general LP for mixed
workflows with set constraints (Section 5.2), and the ℓ_max set-LP
rounding otherwise (Theorem 6).
"""

from __future__ import annotations

from ..core.secure_view import SecureViewProblem
from ..optim.baselines import hide_all_intermediate, hide_everything, random_feasible
from ..optim.cardinality_rounding import solve_cardinality_rounding
from ..optim.exact import solve_exact_enumeration, solve_exact_ip
from ..optim.general_lp import solve_general_lp
from ..optim.greedy import greedy_guarantee, solve_greedy, union_of_standalone_optima
from ..optim.set_lp import solve_set_lp
from .registry import register_solver

__all__: list[str] = []


def _lmax_guarantee(problem: SecureViewProblem) -> str:
    return f"l_max = {problem.lmax} (Thm 6)"


def _greedy_guarantee(problem: SecureViewProblem) -> str:
    return f"gamma+1 = {greedy_guarantee(problem)} (Thm 7)"


def _general_guarantee(problem: SecureViewProblem) -> str:
    if problem.constraint_kind == "set":
        return f"l_max = {problem.lmax} (Sec 5.2)"
    return "heuristic (Thm 10 rules out a guarantee)"


register_solver(
    "lp_rounding",
    constraints="cardinality",
    scope="any",
    randomized=True,
    guarantee="O(log n) (Thm 5)",
    cost_rank=10,
    summary="Figure-3 LP relaxation + Algorithm-1 randomized rounding",
)(solve_cardinality_rounding)

register_solver(
    "set_lp",
    constraints="set",
    scope="all-private",
    guarantee=_lmax_guarantee,
    cost_rank=10,
    summary="set-constraint LP + 1/l_max threshold rounding",
)(solve_set_lp)

register_solver(
    "general_lp",
    constraints="any",
    scope="general",
    randomized=True,
    guarantee=_general_guarantee,
    cost_rank=20,
    summary="general-workflow LP (19)-(23) with privatization variables",
)(solve_general_lp)

register_solver(
    "greedy",
    constraints="any",
    scope="any",
    guarantee=_greedy_guarantee,
    cost_rank=30,
    summary="per-module cheapest requirement option",
)(solve_greedy)

register_solver(
    "union_standalone",
    constraints="any",
    scope="any",
    guarantee=_greedy_guarantee,
    cost_rank=35,
    summary="union of standalone optima (Example-5 baseline)",
)(union_of_standalone_optima)

register_solver(
    "exact",
    constraints="any",
    scope="any",
    exact=True,
    guarantee="optimal",
    cost_rank=90,
    summary="integral Figure-3 / (15)-(17) / (19)-(23) program (HiGHS)",
    aliases=("exact_ip",),
)(solve_exact_ip)

register_solver(
    "exact_enum",
    constraints="any",
    scope="any",
    exact=True,
    guarantee="optimal",
    cost_rank=95,
    summary="enumeration over requirement-option combinations",
)(solve_exact_enumeration)

register_solver(
    "hide_everything",
    constraints="any",
    scope="any",
    baseline=True,
    cost_rank=100,
    summary="hide every hidable attribute",
)(hide_everything)

register_solver(
    "hide_intermediate",
    constraints="any",
    scope="any",
    baseline=True,
    cost_rank=100,
    summary="hide every intermediate (module-to-module) attribute",
)(hide_all_intermediate)

register_solver(
    "random",
    constraints="any",
    scope="any",
    randomized=True,
    baseline=True,
    cost_rank=100,
    summary="add random attributes until every requirement is met",
)(random_feasible)
