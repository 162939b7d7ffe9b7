"""Tests for the LP/IP builder on top of scipy."""

from __future__ import annotations

import pytest

from repro.exceptions import SolverError
from repro.optim import LinearProgram


def knapsack_like_program() -> LinearProgram:
    program = LinearProgram()
    program.add_variable("x", cost=1.0)
    program.add_variable("y", cost=2.0)
    program.add_row({"x": 1.0, "y": 1.0}, lower=1.5)
    return program


class TestConstruction:
    def test_duplicate_variable_rejected(self):
        program = LinearProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.add_variable("x")

    def test_unknown_variable_in_constraint_rejected(self):
        program = LinearProgram()
        program.add_variable("x")
        with pytest.raises(SolverError, match="'y'"):
            program.add_row({"x": 1.0, "y": 1.0}, lower=1.0)
        # The refused row left nothing behind.
        assert program.row_lower == []
        assert program.solve().objective == pytest.approx(0.0)

    def test_counts_and_introspection(self):
        program = knapsack_like_program()
        assert program.index == {"x": 0, "y": 1}
        assert program.cost == [1.0, 2.0]
        assert program.upper == [1.0, 1.0]
        assert len(program.row_lower) == 1
        assert "z" not in program.index

    def test_empty_program_cannot_be_solved(self):
        with pytest.raises(SolverError):
            LinearProgram().solve()
        with pytest.raises(SolverError):
            LinearProgram().solve(integral=True)


class TestSolving:
    def test_relaxation_fractional_optimum(self):
        program = knapsack_like_program()
        solution = program.solve()
        assert solution.optimal
        # Put everything on the cheap variable: x = 1, y = 0.5, objective 2.
        assert solution.objective == pytest.approx(2.0)
        assert solution.value("x") == pytest.approx(1.0)
        assert solution.value("y") == pytest.approx(0.5)

    def test_integer_optimum_rounds_up(self):
        program = knapsack_like_program()
        solution = program.solve(integral=True)
        assert solution.optimal
        assert solution.objective == pytest.approx(3.0)
        assert solution.value("x") == pytest.approx(1.0)
        assert solution.value("y") == pytest.approx(1.0)

    def test_equality_constraints(self):
        program = LinearProgram()
        program.add_variable("x", cost=1.0)
        program.add_row({"x": 1.0}, lower=0.25, upper=0.25)
        solution = program.solve()
        assert solution.value("x") == pytest.approx(0.25)

    def test_upper_bounded_rows(self):
        program = LinearProgram()
        program.add_variable("x", cost=-1.0)
        program.add_variable("y", cost=-1.0)
        program.add_row({"x": 1.0, "y": 1.0}, upper=1.5)
        assert program.solve().objective == pytest.approx(-1.5)
        assert program.solve(integral=True).objective == pytest.approx(-1.0)

    def test_infeasible_program_reports_status(self):
        program = LinearProgram()
        program.add_variable("x", cost=1.0, upper=1.0)
        program.add_row({"x": 1.0}, lower=2.0)
        for integral in (False, True):
            solution = program.solve(integral=integral)
            assert not solution.optimal
            assert solution.status == "infeasible"

    def test_solve_dispatch(self):
        program = knapsack_like_program()
        assert program.solve().objective == pytest.approx(2.0)
        assert program.solve(integral=False).objective == pytest.approx(2.0)
        assert program.solve(integral=True).objective == pytest.approx(3.0)

    def test_variable_bounds_respected(self):
        program = LinearProgram()
        program.add_variable("x", cost=-1.0, upper=0.7)
        solution = program.solve()
        assert solution.value("x") == pytest.approx(0.7)
