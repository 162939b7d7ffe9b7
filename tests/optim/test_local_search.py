"""Tests for the local-search post-processing passes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.optim import (
    hide_everything,
    improve_solution,
    prune_solution,
    solve_exact_ip,
    solve_greedy,
    swap_options,
)
from repro.workloads import example5_problem, random_problem


class TestPrune:
    def test_prunes_hide_everything_down(self, small_set_problem):
        bloated = hide_everything(small_set_problem)
        pruned = prune_solution(small_set_problem, bloated)
        small_set_problem.validate_solution(pruned)
        assert pruned.cost() <= bloated.cost()
        assert len(pruned.hidden_attributes) < len(bloated.hidden_attributes)

    def test_never_breaks_feasibility(self, small_cardinality_problem):
        base = solve_greedy(small_cardinality_problem)
        pruned = prune_solution(small_cardinality_problem, base)
        small_cardinality_problem.validate_solution(pruned)

    def test_optimal_solution_unchanged(self, small_set_problem):
        optimum = solve_exact_ip(small_set_problem)
        pruned = prune_solution(small_set_problem, optimum)
        assert pruned.cost() == pytest.approx(optimum.cost())

    def test_answer_does_not_depend_on_the_hash_seed(self):
        # Equal costs used to be pruned in set order, which follows
        # PYTHONHASHSEED: Example 5 kept a2 with b3, b2 or b1.
        script = (
            "from repro import Planner\n"
            "from repro.workloads import example5_problem\n"
            "planner = Planner.from_problem(example5_problem(6))\n"
            "result = planner.solve('greedy', local_search=True)\n"
            "print(sorted(result.hidden_attributes), result.cost)\n"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        answers = set()
        for hash_seed in ("1", "2", "3"):
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


class TestSwap:
    def test_swap_improves_example5_greedy(self):
        problem = example5_problem(8)
        greedy = solve_greedy(problem)
        swapped = swap_options(problem, greedy)
        problem.validate_solution(swapped)
        # Greedy pays n+1; swapping in the shared a2 option collapses it to 2+eps.
        assert swapped.cost() < greedy.cost()
        assert swapped.cost() == pytest.approx(solve_exact_ip(problem).cost())

    def test_swap_never_worsens(self, small_cardinality_problem):
        base = solve_greedy(small_cardinality_problem)
        swapped = swap_options(small_cardinality_problem, base)
        assert swapped.cost() <= base.cost() + 1e-9


class TestImproveAndSolver:
    def test_improve_runs_both_passes(self, small_set_problem):
        base = hide_everything(small_set_problem)
        improved = improve_solution(small_set_problem, base)
        assert improved.cost() <= base.cost()
        assert improved.meta["local_search"] in {"pruned", "swapped"}

    def test_unknown_pass_rejected(self, small_set_problem):
        base = solve_greedy(small_set_problem)
        with pytest.raises(ValueError):
            improve_solution(small_set_problem, base, passes=("polish",))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_search_closes_part_of_the_greedy_gap(self, seed):
        problem = random_problem(n_modules=10, kind="set", seed=seed)
        greedy = solve_greedy(problem)
        improved = improve_solution(problem, greedy)
        optimum = solve_exact_ip(problem).cost()
        assert optimum - 1e-6 <= improved.cost() <= greedy.cost() + 1e-9
