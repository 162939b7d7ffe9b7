"""Tests for the synthetic scientific-workflow generator."""

from __future__ import annotations

from repro.optim import solve_greedy
from repro.workloads import (
    ScientificWorkflowConfig,
    scientific_problem,
    scientific_suite,
    scientific_workflow,
)


class TestScientificWorkflow:
    def test_module_count_close_to_requested(self):
        workflow = scientific_workflow(ScientificWorkflowConfig(n_modules=30, seed=1))
        assert 25 <= len(workflow) <= 35

    def test_deterministic_per_seed(self):
        config = ScientificWorkflowConfig(n_modules=20, seed=4)
        assert (
            scientific_workflow(config).attribute_names
            == scientific_workflow(config).attribute_names
        )

    def test_respects_sharing_cap_loosely(self):
        config = ScientificWorkflowConfig(n_modules=25, seed=2, max_sharing=2)
        workflow = scientific_workflow(config)
        # The aggregators may slightly exceed the cap when the pool runs dry,
        # but the overall sharing stays small.
        assert workflow.data_sharing_degree() <= 6

    def test_public_fraction_zero_gives_all_private(self):
        config = ScientificWorkflowConfig(n_modules=15, seed=3, public_fraction=0.0)
        workflow = scientific_workflow(config)
        assert workflow.is_all_private

    def test_executes_end_to_end(self):
        workflow = scientific_workflow(ScientificWorkflowConfig(n_modules=12, seed=5))
        inputs = {name: 0 for name in workflow.initial_inputs}
        result = workflow.run(inputs)
        assert set(result) == set(workflow.attribute_names)


class TestScientificProblems:
    def test_problem_has_requirements_for_private_modules(self):
        problem = scientific_problem(
            ScientificWorkflowConfig(n_modules=15, seed=6, public_fraction=0.0)
        )
        assert set(problem.requirements) == {
            m.name for m in problem.workflow.private_modules
        }

    def test_problem_solvable_by_greedy(self):
        problem = scientific_problem(
            ScientificWorkflowConfig(n_modules=15, seed=7, public_fraction=0.0)
        )
        solution = solve_greedy(problem)
        problem.validate_solution(solution)

    def test_suite_sizes(self):
        problems = list(scientific_suite(sizes=(10, 20), seed=1))
        assert len(problems) == 2
        assert len(problems[0].workflow) < len(problems[1].workflow)
