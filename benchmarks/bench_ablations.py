"""Ablations called out in DESIGN.md: local search, rounding scale, privatization value.

These are not experiments from the paper; they probe the design choices of
this implementation (and one choice the paper leaves implicit):

* **local search** — how much does pruning/option-swapping improve each base
  solver?  (It provably never hurts; Example 5 is the showcase where it
  closes the whole Ω(n) gap left by the greedy.)
* **rounding scale** — Algorithm 1 uses probability ``min(1, 16·x_b·log n)``;
  smaller constants trade repair frequency against rounded cost.
* **privatization value** — in mixed workflows, how much cheaper are
  solutions that may privatize public modules compared to solutions that
  must avoid touching public modules' attributes altogether?
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis import format_table
from repro.core import SecureViewProblem
from repro.engine import Planner
from repro.exceptions import ProvenanceError
from repro.optim import improve_solution
from repro.workloads import example5_problem, random_problem


@pytest.mark.experiment("ablation")
def test_bench_local_search_ablation(benchmark, report_sink):
    """Greedy / LP-rounding with and without local-search post-processing."""
    instances = [
        ("example5 (n=12)", example5_problem(12)),
        ("random set n=12", random_problem(n_modules=12, kind="set", seed=3)),
        ("random card n=12", random_problem(n_modules=12, kind="cardinality", seed=3)),
    ]
    # One planner per instance: exact, base and improved solves all share the
    # same derivation cache instead of re-deriving requirement lists.
    planners = [(label, Planner.from_problem(problem)) for label, problem in instances]

    def run():
        rows = []
        for label, planner in planners:
            optimum = planner.solve(solver="exact").cost
            base_solver = (
                "lp_rounding" if planner.kind == "cardinality" else "greedy"
            )
            base = planner.solve(solver=base_solver, seed=0)
            improved = improve_solution(planner.problem(), base.solution)
            rows.append(
                [
                    label,
                    f"{base.cost / optimum:.2f}",
                    f"{improved.cost() / optimum:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink.append(
        (
            "Ablation: local-search post-processing (ratio to optimum before/after)",
            format_table(["instance", "base ratio", "after local search"], rows),
        )
    )
    for _, base_ratio, improved_ratio in rows:
        assert float(improved_ratio) <= float(base_ratio) + 1e-9


@pytest.mark.experiment("ablation")
def test_bench_rounding_scale_ablation(benchmark, report_sink):
    """Algorithm 1's rounding constant: cost and repair frequency per scale."""
    problem = random_problem(n_modules=20, kind="cardinality", seed=17)
    planner = Planner.from_problem(problem)
    optimum = planner.solve(solver="exact").cost
    scales = (2.0, 8.0, 16.0)

    def run():
        rows = []
        for scale in scales:
            costs, repairs = [], []
            for seed in range(5):
                result = planner.solve(solver="lp_rounding", seed=seed, scale=scale)
                costs.append(result.cost / optimum)
                repairs.append(len(result.meta["repaired_modules"]))
            rows.append(
                [
                    scale,
                    f"{statistics.fmean(costs):.2f}",
                    f"{statistics.fmean(repairs):.1f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink.append(
        (
            "Ablation: Algorithm-1 rounding constant (mean over 5 seeds, n=20)",
            format_table(
                ["scale", "mean cost ratio", "mean repaired modules"], rows
            ),
        )
    )
    # The paper's constant (16) needs the fewest repairs.
    assert float(rows[-1][2]) <= float(rows[0][2]) + 1e-9


@pytest.mark.experiment("ablation")
def test_bench_privatization_value(benchmark, report_sink):
    """How much does the option to privatize public modules save?"""
    rows = []
    # Random seeds 1-3 are infeasible without privatization.  Random seed 8
    # and layered seed 5 are the draws of seeds 1-15 at these parameters
    # that stay feasible, so their rows report a cost ratio.
    instances = [("random", 1), ("random", 2), ("random", 3)]
    instances += [("random", 8), ("layered", 5)]

    def run():
        rows.clear()
        for topology, seed in instances:
            problem = random_problem(
                n_modules=12,
                kind="set",
                seed=seed,
                topology=topology,
                private_fraction=0.6,
            )
            planner = Planner.from_problem(problem)
            with_privatization = planner.solve(solver="exact").cost
            # Without privatization no attribute of a public module is
            # hidable (the problem's own rule).
            restricted = SecureViewProblem(
                problem.workflow,
                problem.gamma,
                problem.requirements,
                allow_privatization=False,
            )
            # Same workflow and lists: the restricted planner shares the
            # first planner's cache, so nothing is re-derived.
            restricted_planner = Planner.from_problem(restricted, cache=planner.cache)
            try:
                without_privatization = restricted_planner.solve(solver="exact").cost
                note = f"{without_privatization / with_privatization:.2f}x"
            except ProvenanceError:
                without_privatization = float("inf")
                note = "infeasible without privatization"
            # Forbidding privatization can only remove solutions.
            assert without_privatization >= with_privatization - 1e-6
            rows.append(
                [
                    f"{topology} seed {seed}",
                    f"{with_privatization:.1f}",
                    (
                        "inf"
                        if without_privatization == float("inf")
                        else f"{without_privatization:.1f}"
                    ),
                    note,
                ]
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink.append(
        (
            "Ablation: value of privatization in mixed workflows (exact optima)",
            format_table(
                ["instance", "with privatization", "hiding only", "overhead"], rows
            ),
        )
    )
    assert rows
