"""E10/E11: cardinality constraints — Algorithm 1 vs exact, set-cover reduction, LP ablation."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.analysis import format_table
from repro.optim import (
    STRENGTH_FULL,
    STRENGTH_NO_CAP,
    STRENGTH_NO_SUM,
    build_cardinality_program,
    solve_cardinality_rounding,
    solve_exact_ip,
    solve_greedy,
)
from repro.reductions import (
    exact_set_cover,
    greedy_set_cover,
    random_set_cover,
    set_cover_to_secure_view,
)
from repro.workloads import random_problem


@pytest.mark.experiment("E10")
@pytest.mark.parametrize("n_modules", [10, 20, 40])
def test_bench_lp_rounding(benchmark, n_modules, report_sink):
    """Algorithm-1 rounding cost stays within O(log n) of the optimum."""
    problem = random_problem(n_modules=n_modules, kind="cardinality", seed=n_modules)
    optimum = solve_exact_ip(problem).cost()

    solution = benchmark(solve_cardinality_rounding, problem, seed=0)
    ratios = [
        solve_cardinality_rounding(problem, seed=seed).cost() / optimum
        for seed in range(5)
    ]
    report_sink.append(
        (
            f"E10 (Theorem 5): LP rounding on n={n_modules} modules",
            format_table(
                ["quantity", "paper", "measured"],
                [
                    [
                        "guarantee",
                        f"O(log n) = {16 * math.log(n_modules):.1f}x",
                        f"{max(ratios):.2f}x worst of 5 seeds",
                    ],
                    [
                        "mean ratio",
                        "close to 1 in practice",
                        f"{statistics.fmean(ratios):.2f}x",
                    ],
                    ["optimum cost", "-", f"{optimum:.2f}"],
                ],
            ),
        )
    )
    assert solution.cost() >= optimum - 1e-6
    assert min(ratios) <= 16 * math.log(n_modules)
    assert statistics.fmean(ratios) <= 4.0


@pytest.mark.experiment("E10")
def test_bench_exact_ip_cardinality(benchmark):
    """The exact Figure-3 IP as a baseline (n = 20 modules)."""
    problem = random_problem(n_modules=20, kind="cardinality", seed=20)
    solution = benchmark(solve_exact_ip, problem)
    problem.validate_solution(solution)


@pytest.mark.experiment("E10")
def test_bench_lp_strength_ablation(benchmark, report_sink):
    """Ablation: the weakened LPs of Appendix B.4 leave larger integrality gaps."""
    problem = random_problem(n_modules=15, kind="cardinality", seed=77)
    optimum = solve_exact_ip(problem).cost()

    def solve_all():
        values = {}
        for strength in (STRENGTH_FULL, STRENGTH_NO_CAP, STRENGTH_NO_SUM):
            built = build_cardinality_program(problem, strength=strength)
            values[strength] = built.solve().objective
        return values

    values = benchmark(solve_all)
    rows = [
        [strength, f"{value:.2f}", f"{optimum / value if value else float('inf'):.2f}"]
        for strength, value in values.items()
    ]
    report_sink.append(
        (
            "E10 ablation (Appendix B.4): LP strength vs integrality gap (IP optimum "
            f"= {optimum:.2f})",
            format_table(["LP variant", "LP value", "gap (OPT / LP)"], rows),
        )
    )
    assert values[STRENGTH_NO_CAP] <= values[STRENGTH_FULL] + 1e-6
    assert values[STRENGTH_NO_SUM] <= values[STRENGTH_FULL] + 1e-6
    assert values[STRENGTH_FULL] <= optimum + 1e-6


@pytest.mark.experiment("E11")
def test_bench_set_cover_reduction(benchmark, report_sink):
    """The Theorem-5 reduction preserves optima; greedy set cover upper-bounds it."""
    instance = random_set_cover(10, 8, seed=4)
    problem = set_cover_to_secure_view(instance)

    solution = benchmark(solve_exact_ip, problem)
    cover_opt = len(exact_set_cover(instance))
    greedy_cover = len(greedy_set_cover(instance))
    report_sink.append(
        (
            "E11 (Theorem 5 hardness): set-cover reduction (10 elements, 8 subsets)",
            format_table(
                ["quantity", "paper", "measured"],
                [
                    [
                        "secure-view optimum = set-cover optimum",
                        cover_opt,
                        solution.cost(),
                    ],
                    [
                        "greedy set cover (ln n approx)",
                        f"<= {cover_opt} * ln(10)",
                        greedy_cover,
                    ],
                ],
            ),
        )
    )
    assert solution.cost() == pytest.approx(cover_opt)


@pytest.mark.experiment("E10")
def test_bench_greedy_vs_rounding_unbounded_sharing(benchmark, report_sink):
    """With heavy data sharing the LP rounding beats the greedy baseline."""
    problem = random_problem(
        n_modules=30, kind="cardinality", seed=9, topology="layered"
    )
    optimum = solve_exact_ip(problem).cost()

    rounding_cost = benchmark(
        lambda: min(
            solve_cardinality_rounding(problem, seed=seed).cost() for seed in range(3)
        )
    )
    greedy_cost = solve_greedy(problem).cost()
    report_sink.append(
        (
            "E10 (Theorem 5 vs Example 5 baseline): layered workflow, n=30",
            format_table(
                ["method", "cost", "ratio to optimum"],
                [
                    ["exact IP", f"{optimum:.2f}", "1.00"],
                    [
                        "LP rounding (best of 3)",
                        f"{rounding_cost:.2f}",
                        f"{rounding_cost / optimum:.2f}",
                    ],
                    [
                        "greedy / union of standalone optima",
                        f"{greedy_cost:.2f}",
                        f"{greedy_cost / optimum:.2f}",
                    ],
                ],
            ),
        )
    )
    assert rounding_cost <= greedy_cost + 1e-6 or rounding_cost <= 2 * optimum
