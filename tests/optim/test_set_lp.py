"""Tests for the set-constraint LP and its ℓ_max rounding (Theorem 6)."""

from __future__ import annotations

import pytest

from repro.engine import Planner
from repro.exceptions import RequirementError
from repro.optim import (
    LinearProgram,
    build_set_program,
    solve_exact_ip,
    solve_general_lp,
    solve_set_lp,
)
from repro.workloads import example5_problem, random_problem


class TestProgram:
    def test_requires_set_constraints(self, small_cardinality_problem):
        with pytest.raises(RequirementError):
            build_set_program(small_cardinality_problem)

    def test_relaxation_lower_bounds_optimum(self, small_set_problem):
        lp = build_set_program(small_set_problem).solve()
        optimum = solve_exact_ip(small_set_problem).cost()
        assert lp.optimal
        assert lp.objective <= optimum + 1e-6

    def test_integer_program_matches_exact_enumeration(self, small_set_problem):
        from repro.optim import solve_exact_enumeration

        ip_cost = solve_exact_ip(small_set_problem).cost()
        enum_cost = solve_exact_enumeration(small_set_problem).cost()
        assert ip_cost == pytest.approx(enum_cost)


class TestRounding:
    def test_solution_is_feasible(self, small_set_problem):
        solution = solve_set_lp(small_set_problem)
        small_set_problem.validate_solution(solution)
        assert solution.meta["method"] == "set_lp"

    def test_lmax_guarantee_holds(self, small_set_problem):
        solution = solve_set_lp(small_set_problem)
        optimum = solve_exact_ip(small_set_problem).cost()
        assert solution.cost() <= small_set_problem.lmax * optimum + 1e-6

    def test_lmax_guarantee_on_example5(self):
        problem = example5_problem(6)
        solution = solve_set_lp(problem)
        optimum = solve_exact_ip(problem).cost()
        assert solution.cost() <= problem.lmax * optimum + 1e-6

    def test_rejects_cardinality_instances(self, small_cardinality_problem):
        with pytest.raises(RequirementError):
            solve_set_lp(small_cardinality_problem)

    def test_random_instances_stay_feasible(self):
        for seed in range(4):
            problem = random_problem(n_modules=10, kind="set", seed=seed)
            solution = solve_set_lp(problem)
            problem.validate_solution(solution)


class TestOneProgram:
    """LP (19)–(23) without public modules is LP (15)–(17): one program."""

    def test_set_lp_and_general_lp_solve_one_relaxation(self, monkeypatch):
        calls = []
        original = LinearProgram.solve

        def counting(program, integral=False):
            calls.append(integral)
            return original(program, integral)

        monkeypatch.setattr(LinearProgram, "solve", counting)
        planner = Planner.from_problem(random_problem(n_modules=7, kind="set", seed=1))
        for solver in ("set_lp", "general_lp", "set_lp", "general_lp"):
            planner.solve(solver)
        assert calls == [False]

    def test_mixed_workflow_keeps_two_programs(self):
        # set_lp's program carries no privatization costs; general_lp's does.
        problem = random_problem(n_modules=10, kind="set", seed=0, private_fraction=0.5)
        plain = solve_set_lp(problem).meta["lp_objective"]
        priced = solve_general_lp(problem).meta["lp_objective"]
        assert plain == pytest.approx(13.0525)
        assert priced == pytest.approx(15.432)
