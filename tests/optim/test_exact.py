"""Tests for the exact solvers (IP and enumeration)."""

from __future__ import annotations

import pytest

from repro.core import SecureViewProblem, SetRequirement, SetRequirementList
from repro.exceptions import InfeasibleError, SolverError
from repro.optim import solve_exact_enumeration, solve_exact_ip
from repro.workloads import figure1_workflow, random_problem


class TestExactIP:
    def test_feasible_and_minimal_on_figure1(self, figure1_problem):
        solution = solve_exact_ip(figure1_problem)
        figure1_problem.validate_solution(solution)
        # Γ=2 on Figure 1 can be met by hiding one attribute per module at
        # most; with sharing the optimum is at most 3 and at least 1.
        assert 1.0 <= solution.cost() <= 3.0

    def test_matches_enumeration_on_set_instances(self):
        for seed in range(4):
            problem = random_problem(n_modules=8, kind="set", seed=seed)
            assert solve_exact_ip(problem).cost() == pytest.approx(
                solve_exact_enumeration(problem).cost()
            )

    def test_matches_enumeration_on_cardinality_instances(self):
        for seed in range(3):
            problem = random_problem(n_modules=6, kind="cardinality", seed=seed)
            assert solve_exact_ip(problem).cost() == pytest.approx(
                solve_exact_enumeration(problem).cost()
            )

    def test_infeasible_instance_raises(self):
        workflow = figure1_workflow()
        problem = SecureViewProblem(
            workflow,
            2,
            {
                "m1": SetRequirementList(
                    "m1", [SetRequirement(frozenset({"a1"}), frozenset())]
                )
            },
            hidable_attributes=frozenset({"a7"}),
        )
        with pytest.raises(InfeasibleError):
            solve_exact_ip(problem)

    def test_exact_is_lower_bound_for_heuristics(self, small_cardinality_problem):
        from repro.optim import solve_cardinality_rounding, solve_greedy

        optimum = solve_exact_ip(small_cardinality_problem).cost()
        assert optimum <= solve_greedy(small_cardinality_problem).cost() + 1e-6
        assert (
            optimum
            <= solve_cardinality_rounding(small_cardinality_problem, seed=0).cost()
            + 1e-6
        )


class TestExactEnumeration:
    def test_enumeration_limit_guard(self):
        problem = random_problem(n_modules=12, kind="cardinality", seed=5)
        with pytest.raises(SolverError):
            solve_exact_enumeration(problem, max_combinations=2)

    def test_infeasible_option_detected(self):
        workflow = figure1_workflow()
        problem = SecureViewProblem(
            workflow,
            2,
            {
                "m1": SetRequirementList(
                    "m1", [SetRequirement(frozenset({"a1"}), frozenset())]
                )
            },
            hidable_attributes=frozenset({"a7"}),
        )
        with pytest.raises(InfeasibleError):
            solve_exact_enumeration(problem)

    def test_solution_meta_method(self, small_set_problem):
        solution = solve_exact_enumeration(small_set_problem)
        assert solution.meta["method"] == "exact_enumeration"
