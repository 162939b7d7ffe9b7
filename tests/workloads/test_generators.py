"""Tests for the random workflow / requirement / problem generators."""

from __future__ import annotations

import pytest

from repro.core import CardinalityRequirementList, SetRequirementList
from repro.exceptions import WorkflowError
from repro.optim import solve_greedy
from repro.workloads import (
    chain_workflow,
    layered_workflow,
    random_cardinality_requirements,
    random_problem,
    random_requirements,
    random_set_requirements,
    random_workflow,
)


class TestTopologies:
    def test_chain_workflow_shape_and_sharing(self):
        workflow = chain_workflow(6, width=2, seed=1)
        assert len(workflow) == 6
        assert workflow.data_sharing_degree() == 1

    def test_chain_workflow_validation(self):
        with pytest.raises(WorkflowError):
            chain_workflow(0)

    def test_chain_workflow_deterministic(self):
        a = chain_workflow(4, seed=9)
        b = chain_workflow(4, seed=9)
        assert a.attribute_names == b.attribute_names

    def test_layered_workflow_shape(self):
        workflow = layered_workflow(3, 3, seed=2)
        assert len(workflow) == 9

    def test_layered_workflow_respects_max_sharing(self):
        workflow = layered_workflow(3, 3, seed=2, max_sharing=2)
        assert workflow.data_sharing_degree() <= 3  # soft cap; fallback may exceed by 1

    def test_layered_workflow_validation(self):
        with pytest.raises(WorkflowError):
            layered_workflow(0, 3)

    def test_random_workflow_is_dag_with_requested_size(self):
        workflow = random_workflow(15, seed=3)
        assert len(workflow) == 15
        assert len(workflow.attribute_names) > 15

    def test_random_workflow_private_fraction(self):
        workflow = random_workflow(20, seed=4, private_fraction=0.0)
        assert not workflow.private_modules

    def test_random_workflow_executes(self):
        workflow = random_workflow(6, seed=5)
        inputs = {name: 0 for name in workflow.initial_inputs}
        result = workflow.run(inputs)
        assert set(result) == set(workflow.attribute_names)

    def test_random_workflow_validation(self):
        with pytest.raises(WorkflowError):
            random_workflow(0)


class TestRequirementGenerators:
    def test_cardinality_lists_cover_private_modules(self):
        workflow = random_workflow(10, seed=6)
        lists = random_cardinality_requirements(workflow, seed=6)
        assert set(lists) == {m.name for m in workflow.private_modules}
        for name, requirement in lists.items():
            assert isinstance(requirement, CardinalityRequirementList)
            requirement.validate_against(workflow.module(name))

    def test_cardinality_lists_non_trivial(self):
        workflow = random_workflow(10, seed=7)
        lists = random_cardinality_requirements(workflow, seed=7)
        for requirement in lists.values():
            for option in requirement:
                assert option.alpha + option.beta >= 1

    def test_set_lists_valid(self):
        workflow = random_workflow(10, seed=8)
        lists = random_set_requirements(workflow, seed=8)
        for name, requirement in lists.items():
            assert isinstance(requirement, SetRequirementList)
            requirement.validate_against(workflow.module(name))

    def test_requirements_dispatch(self):
        workflow = random_workflow(6, seed=9)
        assert random_requirements(workflow, kind="set", seed=1)
        assert random_requirements(workflow, kind="cardinality", seed=1)
        with pytest.raises(WorkflowError):
            random_requirements(workflow, kind="nope")

    def test_generators_deterministic(self):
        workflow = random_workflow(8, seed=10)
        first = random_cardinality_requirements(workflow, seed=2)
        second = random_cardinality_requirements(workflow, seed=2)
        assert {
            name: [(o.alpha, o.beta) for o in req] for name, req in first.items()
        } == {
            name: [(o.alpha, o.beta) for o in req] for name, req in second.items()
        }


class TestProblemGenerator:
    @pytest.mark.parametrize("topology", ["chain", "layered", "random"])
    def test_problem_topologies(self, topology):
        problem = random_problem(n_modules=8, kind="set", seed=1, topology=topology)
        assert problem.requirements
        assert problem.constraint_kind == "set"

    def test_problem_is_solvable(self):
        problem = random_problem(n_modules=8, kind="cardinality", seed=2)
        solution = solve_greedy(problem)
        problem.validate_solution(solution)

    def test_problem_respects_max_sharing(self):
        problem = random_problem(
            n_modules=12, kind="cardinality", seed=3, max_sharing=1
        )
        assert problem.workflow.data_sharing_degree() <= 2

    @pytest.mark.parametrize("kind", ["set", "cardinality"])
    def test_draw_without_private_module_gets_one(self, kind):
        # Seed 0 draws all four modules public; the first becomes private.
        problem = random_problem(n_modules=4, kind=kind, seed=0, private_fraction=0.5)
        assert [m.name for m in problem.workflow.private_modules] == ["m0"]
        assert list(problem.requirements) == ["m0"]
        # A draw with a private module is the workflow generator's own.
        problem = random_problem(n_modules=4, kind=kind, seed=2, private_fraction=0.5)
        drawn = random_workflow(4, seed=2, private_fraction=0.5)
        assert [m.private for m in problem.workflow] == [m.private for m in drawn]


class TestRngThreading:
    """Every generator accepts an explicit rng (like the solvers do)."""

    def test_workflow_generators_reproducible_with_rng(self):
        import random

        for factory in (
            lambda rng: chain_workflow(4, rng=rng),
            lambda rng: layered_workflow(2, 2, rng=rng),
            lambda rng: random_workflow(5, rng=rng),
        ):
            a = factory(random.Random(42))
            b = factory(random.Random(42))
            assert a.attribute_names == b.attribute_names
            assert a.module_names == b.module_names
            assert [attr.cost for attr in a.schema] == [
                attr.cost for attr in b.schema
            ]

    def test_requirement_generators_reproducible_with_rng(self):
        import random

        workflow = random_workflow(5, seed=3)
        for kind in ("set", "cardinality"):
            a = random_requirements(workflow, kind=kind, rng=random.Random(7))
            b = random_requirements(workflow, kind=kind, rng=random.Random(7))
            assert {
                name: [repr(option) for option in lst] for name, lst in a.items()
            } == {
                name: [repr(option) for option in lst] for name, lst in b.items()
            }

    def test_random_problem_reproducible_end_to_end_with_one_rng(self):
        import random

        a = random_problem(n_modules=6, kind="set", rng=random.Random(11))
        b = random_problem(n_modules=6, kind="set", rng=random.Random(11))
        assert a.workflow.attribute_names == b.workflow.attribute_names
        assert {
            name: [repr(option) for option in lst]
            for name, lst in a.requirements.items()
        } == {
            name: [repr(option) for option in lst]
            for name, lst in b.requirements.items()
        }

    def test_seed_only_behaviour_unchanged(self):
        """Without rng, seed keeps its historical per-stage semantics."""
        a = random_problem(n_modules=5, kind="cardinality", seed=19)
        b = random_problem(n_modules=5, kind="cardinality", seed=19)
        assert a.workflow.attribute_names == b.workflow.attribute_names
        assert {
            name: [(o.alpha, o.beta) for o in lst]
            for name, lst in a.requirements.items()
        } == {
            name: [(o.alpha, o.beta) for o in lst]
            for name, lst in b.requirements.items()
        }
