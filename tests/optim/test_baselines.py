"""Tests for the trivial baselines."""

from __future__ import annotations

import pytest

from repro.core import SecureViewProblem, SetRequirement, SetRequirementList
from repro.exceptions import InfeasibleError, SolverError
from repro.optim import (
    hide_all_intermediate,
    hide_everything,
    random_feasible,
    solve_exact_ip,
)
from repro.workloads import figure1_workflow


class TestHideEverything:
    def test_feasible_and_upper_bounds_optimum(self, small_set_problem):
        solution = hide_everything(small_set_problem)
        small_set_problem.validate_solution(solution)
        assert solution.cost() >= solve_exact_ip(small_set_problem).cost() - 1e-6

    def test_infeasible_when_hidable_set_too_small(self):
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
            hide_everything(problem)


class TestHideAllIntermediate:
    def test_feasible_when_requirements_live_on_intermediate_data(self):
        workflow = figure1_workflow()
        problem = SecureViewProblem(
            workflow,
            2,
            {
                "m1": SetRequirementList(
                    "m1", [SetRequirement(frozenset(), frozenset({"a4"}))]
                ),
                "m2": SetRequirementList(
                    "m2", [SetRequirement(frozenset({"a3"}), frozenset())]
                ),
            },
        )
        solution = hide_all_intermediate(problem)
        problem.validate_solution(solution)
        assert solution.hidden_attributes <= set(workflow.intermediate_attributes)

    def test_infeasible_when_final_output_needed(self):
        workflow = figure1_workflow()
        problem = SecureViewProblem(
            workflow,
            2,
            {
                "m2": SetRequirementList(
                    "m2", [SetRequirement(frozenset(), frozenset({"a6"}))]
                )
            },
        )
        # The instance is feasible (hiding a6 satisfies m2); the policy is not.
        with pytest.raises(SolverError):
            hide_all_intermediate(problem)


class TestRandomFeasible:
    def test_feasible_and_deterministic_per_seed(self, small_cardinality_problem):
        first = random_feasible(small_cardinality_problem, seed=3)
        second = random_feasible(small_cardinality_problem, seed=3)
        small_cardinality_problem.validate_solution(first)
        assert first.hidden_attributes == second.hidden_attributes

    def test_varies_across_seeds(self, small_cardinality_problem):
        solutions = {
            random_feasible(small_cardinality_problem, seed=seed).hidden_attributes
            for seed in range(6)
        }
        assert len(solutions) > 1

    def test_never_cheaper_than_optimum(self, small_set_problem):
        optimum = solve_exact_ip(small_set_problem).cost()
        for seed in range(4):
            assert (
                random_feasible(small_set_problem, seed=seed).cost() >= optimum - 1e-6
            )
