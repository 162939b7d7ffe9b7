"""Tests for the Figure-3 LP/IP and Algorithm-1 rounding (Theorem 5)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import SecureViewProblem
from repro.exceptions import RequirementError
from repro.optim import (
    STRENGTH_FULL,
    STRENGTH_NO_CAP,
    STRENGTH_NO_SUM,
    build_cardinality_program,
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
        assert len(program.index) > n_attrs
        for name in problem.workflow.attribute_names:
            assert f"x::{name}" in program.index

    def test_relaxation_lower_bounds_integer_program(self, problem):
        built = build_cardinality_program(problem)
        lp = built.solve()
        ip = built.solve(integral=True)
        assert lp.optimal and ip.optimal
        assert lp.objective <= ip.objective + 1e-6

    def test_weakened_lp_is_cheaper_or_equal(self, problem):
        full = build_cardinality_program(problem, strength=STRENGTH_FULL)
        weak = build_cardinality_program(problem, strength=STRENGTH_NO_CAP)
        nosum = build_cardinality_program(problem, strength=STRENGTH_NO_SUM)
        v_full = full.solve().objective
        v_weak = weak.solve().objective
        v_nosum = nosum.solve().objective
        assert v_weak <= v_full + 1e-6
        assert v_nosum <= v_full + 1e-6

    def test_unknown_strength_rejected(self, problem):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            build_cardinality_program(problem, strength="bogus")

    def test_hidden_extraction_threshold(self, problem):
        solution = build_cardinality_program(problem).solve(integral=True)
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
        # Algorithm 1's fall-back B_i^min is the cheapest option set.
        for module_name in problem.requirements:
            fallback = problem.cheapest_option_set(module_name)
            assert problem.requirement_satisfied(module_name, fallback)


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

    def test_seeded_answer_does_not_depend_on_the_hash_seed(self):
        # One draw per attribute used to follow frozenset order, which
        # follows PYTHONHASHSEED: at scale 0.1, seeds 1 and 4 of these
        # instances hid different sets under hash seeds 1 and 2.
        script = (
            "from repro.optim import solve_cardinality_rounding\n"
            "from repro.workloads import random_problem\n"
            "for seed in range(6):\n"
            "    problem = random_problem(n_modules=8, kind='cardinality', seed=seed)\n"
            "    solution = solve_cardinality_rounding(problem, seed=seed, scale=0.1)\n"
            "    print(sorted(solution.hidden_attributes))\n"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        answers = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_root, env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            answers.add(completed.stdout)
        assert len(answers) == 1, answers
