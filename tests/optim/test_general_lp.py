"""Tests for the general-workflow LP with privatization (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.core import SecureViewProblem, SetRequirement, SetRequirementList
from repro.exceptions import RequirementError, SolverError
from repro.optim import (
    build_set_program,
    solve_exact_ip,
    solve_general_lp,
)
from repro.workloads import example7_chain, random_problem


@pytest.fixture
def example7_problem() -> SecureViewProblem:
    workflow = example7_chain(2)
    requirements = {
        "m_mid": SetRequirementList(
            "m_mid",
            [
                SetRequirement(frozenset({"x0", "x1"}), frozenset()),
                SetRequirement(frozenset(), frozenset({"y0", "y1"})),
            ],
        )
    }
    return SecureViewProblem(workflow, gamma=4, requirements=requirements)


class TestProgram:
    def test_requires_set_constraints(self, small_cardinality_problem):
        with pytest.raises(RequirementError):
            build_set_program(small_cardinality_problem, with_privatization=True)

    def test_privatization_variables_present(self, example7_problem):
        program = build_set_program(example7_problem)
        assert program.has_variable("w::m_head")
        assert program.has_variable("w::m_tail")
        rows = [c.name for c in program.constraints if c.name.startswith("privatize[")]
        # Constraint (21): one row per attribute of each public module.
        assert len(rows) == 8
        plain = build_set_program(example7_problem, with_privatization=False)
        assert not any(v.name.startswith("w::") for v in plain.variables)
        assert not any(c.name.startswith("privatize[") for c in plain.constraints)

    def test_relaxation_lower_bounds_optimum(self, example7_problem):
        lp = build_set_program(example7_problem).solve_relaxation()
        optimum = solve_exact_ip(example7_problem).cost()
        assert lp.objective <= optimum + 1e-6


class TestSolve:
    def test_solution_is_feasible_and_privatizes(self, example7_problem):
        solution = solve_general_lp(example7_problem)
        example7_problem.validate_solution(solution)
        # Whatever side was hidden, its public neighbour must be privatized.
        assert solution.privatized_modules

    def test_lmax_guarantee(self, example7_problem):
        solution = solve_general_lp(example7_problem)
        optimum = solve_exact_ip(example7_problem).cost()
        assert solution.cost() <= example7_problem.lmax * optimum + 1e-6

    def test_exact_accounts_for_privatization_costs(self, example7_problem):
        solution = solve_exact_ip(example7_problem)
        # Hiding two attributes (cost 2) plus privatizing one public module.
        workflow = example7_problem.workflow
        expected_minimum = 2.0 + min(
            workflow.module("m_head").privatization_cost,
            workflow.module("m_tail").privatization_cost,
        )
        assert solution.cost() == pytest.approx(expected_minimum)

    def test_cardinality_instances_fall_back_to_rounding(self):
        problem = random_problem(
            n_modules=8, kind="cardinality", seed=41, private_fraction=0.5
        )
        solution = solve_general_lp(problem, seed=0)
        problem.validate_solution(solution)

    def test_privatization_disallowed_raises(self):
        workflow = example7_chain(2)
        requirements = {
            "m_mid": SetRequirementList(
                "m_mid", [SetRequirement(frozenset({"x0"}), frozenset())]
            )
        }
        problem = SecureViewProblem(
            workflow, gamma=2, requirements=requirements, allow_privatization=False
        )
        with pytest.raises(SolverError):
            solve_general_lp(problem)

    def test_random_mixed_instances_feasible(self):
        for seed in range(3):
            problem = random_problem(
                n_modules=10, kind="set", seed=seed, private_fraction=0.5
            )
            solution = solve_general_lp(problem)
            problem.validate_solution(solution)
