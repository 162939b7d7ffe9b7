"""Integration tests for the theorem-level guarantees (experiments E8–E17)."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    assemble_all_private_solution,
    assemble_general_solution,
    is_gamma_private_workflow,
)
from repro.optim import (
    STRENGTH_NO_CAP,
    STRENGTH_NO_SUM,
    build_cardinality_program,
    solve_cardinality_rounding,
    solve_exact_ip,
    solve_general_lp,
    solve_greedy,
    solve_set_lp,
)
from repro.reductions import (
    exact_label_cover,
    exact_set_cover,
    exact_vertex_cover,
    label_cover_to_general_secure_view,
    label_cover_to_set_secure_view,
    random_cubic_graph,
    random_label_cover,
    random_set_cover,
    set_cover_to_general_secure_view,
    set_cover_to_secure_view,
    vertex_cover_to_secure_view,
)
from repro.workloads import (
    example7_chain,
    figure1_workflow,
    random_problem,
    scientific_suite,
)


class TestE8Theorem4:
    """E8: assembling standalone guarantees yields workflow privacy."""

    def test_figure1_assembly_at_gamma_2(self):
        workflow = figure1_workflow()
        solution = assemble_all_private_solution(workflow, 2)
        assert is_gamma_private_workflow(workflow, solution.visible_attributes, 2)

    def test_assembly_with_suboptimal_per_module_choices(self):
        workflow = figure1_workflow()
        solution = assemble_all_private_solution(
            workflow,
            2,
            hidden_per_module={"m1": {"a1", "a2"}, "m2": {"a6"}, "m3": {"a7"}},
        )
        assert is_gamma_private_workflow(workflow, solution.visible_attributes, 2)


class TestE10CardinalityApproximation:
    """E10: Algorithm 1 stays within the Theorem-5 O(log n) factor."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_within_logn_factor(self, seed):
        problem = random_problem(n_modules=12, kind="cardinality", seed=seed)
        optimum = solve_exact_ip(problem).cost()
        best = min(
            solve_cardinality_rounding(problem, seed=s).cost() for s in range(3)
        )
        n = len(problem.workflow)
        bound = max(16 * math.log(n), 1.0) * optimum
        assert best <= bound + 1e-6
        # Empirically the ratio is far smaller than the analysis constant.
        assert best <= 4 * optimum + 1e-6

    def test_weak_lp_values_never_exceed_full_lp(self):
        problem = random_problem(n_modules=10, kind="cardinality", seed=5)
        full = build_cardinality_program(problem).solve().objective
        no_cap = build_cardinality_program(problem, strength=STRENGTH_NO_CAP).solve()
        no_sum = build_cardinality_program(problem, strength=STRENGTH_NO_SUM).solve()
        assert no_cap.objective <= full + 1e-6
        assert no_sum.objective <= full + 1e-6


class TestE11SetCoverReduction:
    """E11: the Theorem-5 hardness reduction preserves optima."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_optimum_preserved(self, seed):
        instance = random_set_cover(7, 5, seed=seed)
        problem = set_cover_to_secure_view(instance)
        assert solve_exact_ip(problem).cost() == pytest.approx(
            len(exact_set_cover(instance))
        )


class TestE12SetConstraints:
    """E12: ℓ_max rounding and the Figure-4 reduction."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lmax_factor(self, seed):
        problem = random_problem(n_modules=12, kind="set", seed=seed)
        optimum = solve_exact_ip(problem).cost()
        rounded = solve_set_lp(problem).cost()
        assert rounded <= problem.lmax * optimum + 1e-6

    def test_label_cover_reduction_preserved(self):
        instance = random_label_cover(2, 2, 2, seed=7)
        problem = label_cover_to_set_secure_view(instance)
        assert solve_exact_ip(problem).cost() == pytest.approx(
            instance.cost(exact_label_cover(instance))
        )


class TestE13BoundedSharing:
    """E13: greedy (γ+1) guarantee and the Figure-5 reduction."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_greedy_factor_on_bounded_instances(self, seed):
        problem = random_problem(
            n_modules=12, kind="cardinality", seed=seed, max_sharing=2
        )
        gamma = problem.workflow.data_sharing_degree()
        assert solve_greedy(problem).cost() <= (gamma + 1) * solve_exact_ip(
            problem
        ).cost() + 1e-6

    def test_vertex_cover_reduction_preserved(self):
        instance = random_cubic_graph(8, seed=2)
        problem = vertex_cover_to_secure_view(instance)
        expected = instance.n_edges + len(exact_vertex_cover(instance))
        assert solve_exact_ip(problem).cost() == pytest.approx(expected)


class TestE16GeneralWorkflows:
    """E16/E15: Theorem-8 assembly and the general LP with privatization."""

    def test_theorem8_assembly_is_private(self):
        workflow = example7_chain(2)
        solution = assemble_general_solution(workflow, 2)
        assert is_gamma_private_workflow(
            workflow,
            solution.visible_attributes,
            2,
            hidden_public_modules=solution.privatized_modules,
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_general_lp_lmax_factor_on_mixed_instances(self, seed):
        problem = random_problem(
            n_modules=10, kind="set", seed=seed, private_fraction=0.6
        )
        optimum = solve_exact_ip(problem).cost()
        rounded = solve_general_lp(problem).cost()
        assert rounded <= problem.lmax * optimum + 1e-6

    def test_figure6_reduction_preserved(self):
        instance = random_label_cover(2, 2, 2, seed=9)
        problem = label_cover_to_general_secure_view(instance)
        assert solve_exact_ip(problem).cost() == pytest.approx(
            instance.cost(exact_label_cover(instance))
        )


class TestE17GeneralSetCover:
    """E17: the Theorem-9 reduction (no data sharing, cost = privatization)."""

    def test_optimum_preserved_and_sharing_free(self):
        instance = random_set_cover(6, 5, seed=3)
        problem = set_cover_to_general_secure_view(instance)
        assert problem.workflow.data_sharing_degree() == 1
        assert solve_exact_ip(problem).cost() == pytest.approx(
            len(exact_set_cover(instance))
        )


class TestE18Scalability:
    """E18: the LP-based solvers handle the scientific-workflow suite."""

    def test_suite_is_solvable_quickly(self):
        for problem in scientific_suite(sizes=(10, 25), seed=2):
            solution = solve_cardinality_rounding(problem, seed=0)
            problem.validate_solution(solution)
            greedy = solve_greedy(problem)
            problem.validate_solution(greedy)
