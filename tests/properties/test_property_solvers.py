"""Property-based tests: every solver returns feasible, never-better-than-exact solutions."""

from __future__ import annotations

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core import SecureViewProblem
from repro.exceptions import InfeasibleError, RequirementError
from repro.optim import (
    solve_cardinality_rounding,
    solve_exact_ip,
    solve_greedy,
    solve_set_lp,
)
from repro.workloads import random_problem

seeds = st.integers(min_value=0, max_value=200)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_cardinality_solvers_feasible_and_bounded(seed):
    problem = random_problem(n_modules=7, kind="cardinality", seed=seed)
    optimum = solve_exact_ip(problem)
    problem.validate_solution(optimum)
    rounded = solve_cardinality_rounding(problem, seed=seed)
    greedy = solve_greedy(problem)
    problem.validate_solution(rounded)
    problem.validate_solution(greedy)
    assert optimum.cost() <= rounded.cost() + 1e-6
    assert optimum.cost() <= greedy.cost() + 1e-6


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_set_solvers_feasible_and_lmax_bounded(seed):
    problem = random_problem(n_modules=7, kind="set", seed=seed)
    optimum = solve_exact_ip(problem)
    lp_solution = solve_set_lp(problem)
    problem.validate_solution(lp_solution)
    assert optimum.cost() - 1e-6 <= lp_solution.cost()
    assert lp_solution.cost() <= problem.lmax * optimum.cost() + 1e-6


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_greedy_respects_gamma_plus_one_on_bounded_sharing(seed):
    problem = random_problem(
        n_modules=7, kind="cardinality", seed=seed, max_sharing=2
    )
    gamma = problem.workflow.data_sharing_degree()
    greedy = solve_greedy(problem)
    optimum = solve_exact_ip(problem)
    assert greedy.cost() <= (gamma + 1) * optimum.cost() + 1e-6


def _cost_or_infeasible(solver, problem):
    try:
        return solver(problem).cost()
    except InfeasibleError:
        return None


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from([(1.0, True), (0.5, True), (0.5, False)]))
def test_exact_ip_matches_enumeration(seed, mix):
    from repro.optim import solve_exact_enumeration

    private_fraction, allow_privatization = mix
    try:
        generated = random_problem(
            n_modules=6, kind="set", seed=seed, private_fraction=private_fraction
        )
    except RequirementError:  # no module was drawn private
        reject()
    problem = SecureViewProblem(
        generated.workflow,
        generated.gamma,
        generated.requirements,
        allow_privatization=allow_privatization,
    )
    ip = _cost_or_infeasible(solve_exact_ip, problem)
    enumerated = _cost_or_infeasible(solve_exact_enumeration, problem)
    assert (ip is None) == (enumerated is None)
    if ip is not None:
        assert abs(ip - enumerated) < 1e-6
