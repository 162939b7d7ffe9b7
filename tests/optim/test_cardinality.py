"""Tests for the Figure-3 LP/IP and Algorithm-1 rounding (Theorem 5)."""

from __future__ import annotations

import pytest

from repro.core import SecureViewProblem
from repro.exceptions import RequirementError
from repro.optim import (
    STRENGTH_FULL,
    STRENGTH_NO_CAP,
    STRENGTH_NO_SUM,
    build_cardinality_program,
    cheapest_fallback_set,
    expected_rounding_cost,
    solve_cardinality_rounding,
    solve_exact_ip,
)
from repro.workloads import random_problem


@pytest.fixture
def problem() -> SecureViewProblem:
    return random_problem(n_modules=10, kind="cardinality", seed=23)


class TestProgramConstruction:
    def test_requires_cardinality_constraints(self, small_set_problem):
        with pytest.raises(RequirementError):
            build_cardinality_program(small_set_problem)

    def test_variables_cover_attributes_and_options(self, problem):
        program = build_cardinality_program(problem)
        n_attrs = len(problem.workflow.attribute_names)
        assert program.num_variables > n_attrs
        for name in problem.workflow.attribute_names:
            assert program.has_variable(f"x::{name}")

    def test_relaxation_lower_bounds_integer_program(self, problem):
        built = build_cardinality_program(problem)
        lp = built.solve_relaxation()
        built_ip = build_cardinality_program(problem, integral=True)
        ip = built_ip.solve_integer()
        assert lp.optimal and ip.optimal
        assert lp.objective <= ip.objective + 1e-6

    def test_weakened_lp_is_cheaper_or_equal(self, problem):
        full = build_cardinality_program(problem, strength=STRENGTH_FULL)
        weak = build_cardinality_program(problem, strength=STRENGTH_NO_CAP)
        nosum = build_cardinality_program(problem, strength=STRENGTH_NO_SUM)
        v_full = full.solve_relaxation().objective
        v_weak = weak.solve_relaxation().objective
        v_nosum = nosum.solve_relaxation().objective
        assert v_weak <= v_full + 1e-6
        assert v_nosum <= v_full + 1e-6

    def test_unknown_strength_rejected(self, problem):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            build_cardinality_program(problem, strength="bogus")

    def test_hidden_extraction_threshold(self, problem):
        solution = build_cardinality_program(problem, integral=True).solve_integer()
        hidden = {
            name
            for name in problem.workflow.attribute_names
            if solution.value(f"x::{name}") >= 0.5
        }
        assert hidden <= set(problem.workflow.attribute_names)
        assert all(
            problem.requirement_satisfied(name, hidden)
            for name in problem.requirements
        )


class TestFallbackSet:
    def test_fallback_satisfies_module(self, problem):
        for module_name in problem.requirements:
            fallback = cheapest_fallback_set(problem, module_name)
            assert problem.requirement_satisfied(module_name, fallback)

    def test_fallback_requires_cardinality(self, small_set_problem):
        with pytest.raises(RequirementError):
            cheapest_fallback_set(
                small_set_problem, next(iter(small_set_problem.requirements))
            )


class TestRounding:
    def test_rounded_solution_is_feasible(self, problem):
        solution = solve_cardinality_rounding(problem, seed=0)
        problem.validate_solution(solution)
        assert solution.meta["method"] == "lp_rounding"

    def test_rounding_deterministic_given_seed(self, problem):
        first = solve_cardinality_rounding(problem, seed=5)
        second = solve_cardinality_rounding(problem, seed=5)
        assert first.hidden_attributes == second.hidden_attributes

    def test_rounding_cost_close_to_optimum_on_small_instances(self, problem):
        optimum = solve_exact_ip(problem).cost()
        costs = [
            solve_cardinality_rounding(problem, seed=seed).cost() for seed in range(5)
        ]
        assert min(costs) <= 4 * optimum  # far below the 16 log n analysis bound

    def test_rounding_meta_records_lp_objective(self, problem):
        solution = solve_cardinality_rounding(problem, seed=1)
        optimum = solve_exact_ip(problem).cost()
        assert solution.meta["lp_objective"] <= optimum + 1e-6

    def test_small_scale_constant_still_feasible(self, problem):
        # Even with scale 0 every module is repaired via its fallback set.
        solution = solve_cardinality_rounding(problem, seed=0, scale=0.0)
        problem.validate_solution(solution)
        assert len(solution.meta["repaired_modules"]) == len(problem.requirements)

    def test_expected_rounding_cost_averages(self, problem):
        value = expected_rounding_cost(problem, seeds=range(3))
        assert value > 0

    def test_set_constraints_rejected(self, small_set_problem):
        with pytest.raises(RequirementError):
            solve_cardinality_rounding(small_set_problem)

    def test_rounding_on_mixed_workflow_privatizes(self):
        problem = random_problem(
            n_modules=8, kind="cardinality", seed=31, private_fraction=0.6
        )
        solution = solve_cardinality_rounding(problem, seed=2)
        problem.validate_solution(solution)
        assert solution.privatized_modules == problem.required_privatizations(
            solution.hidden_attributes
        )
