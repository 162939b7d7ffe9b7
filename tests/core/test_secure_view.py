"""Tests for the SecureViewProblem container and its feasibility semantics."""

from __future__ import annotations

import pytest

from repro.core import (
    CardinalityRequirement,
    CardinalityRequirementList,
    SecureViewProblem,
    SetRequirement,
    SetRequirementList,
)
from repro.exceptions import InfeasibleError, RequirementError
from repro.workloads import example7_chain


def set_list(module: str, *attribute_sets: set[str]) -> SetRequirementList:
    return SetRequirementList(
        module,
        [SetRequirement(frozenset(), frozenset(attrs)) for attrs in attribute_sets],
    )


class TestConstruction:
    def test_empty_requirements_rejected(self, figure1):
        with pytest.raises(RequirementError):
            SecureViewProblem(figure1, 2, {})

    def test_mixed_requirement_kinds_rejected(self, figure1):
        requirements = {
            "m1": SetRequirementList(
                "m1", [SetRequirement(frozenset(), frozenset({"a3"}))]
            ),
            "m2": CardinalityRequirementList(
                "m2", [CardinalityRequirement(1, 0)]
            ),
        }
        with pytest.raises(RequirementError):
            SecureViewProblem(figure1, 2, requirements)

    def test_public_module_requirement_rejected(self):
        workflow = example7_chain(1)
        requirements = {
            "m_head": SetRequirementList(
                "m_head", [SetRequirement(frozenset(), frozenset({"x0"}))]
            )
        }
        with pytest.raises(RequirementError):
            SecureViewProblem(workflow, 2, requirements)

    def test_requirement_validated_against_module(self, figure1):
        requirements = {
            "m1": SetRequirementList(
                "m1", [SetRequirement(frozenset({"a6"}), frozenset())]
            )
        }
        with pytest.raises(RequirementError):
            SecureViewProblem(figure1, 2, requirements)

    def test_unknown_hidable_attribute_rejected(self, figure1):
        requirements = {"m1": set_list("m1", {"a3"})}
        with pytest.raises(RequirementError):
            SecureViewProblem(
                figure1, 2, requirements, hidable_attributes=frozenset({"zz"})
            )

    def test_from_standalone_analysis(self, figure1):
        problem = SecureViewProblem.from_standalone_analysis(figure1, 2, kind="set")
        assert set(problem.requirements) == {"m1", "m2", "m3"}
        assert problem.constraint_kind == "set"

    def test_constraint_kind_and_lmax(self, figure1):
        problem = SecureViewProblem(
            figure1,
            2,
            {"m1": set_list("m1", {"a3"}, {"a4"}, {"a5"})},
        )
        assert problem.constraint_kind == "set"
        assert problem.lmax == 3


class TestFeasibility:
    def make_problem(self, figure1) -> SecureViewProblem:
        return SecureViewProblem(
            figure1,
            2,
            {
                "m1": set_list("m1", {"a3"}, {"a4"}),
                "m2": set_list("m2", {"a6"}),
            },
        )

    def test_requirement_satisfied(self, figure1):
        problem = self.make_problem(figure1)
        assert problem.requirement_satisfied("m1", {"a3"})
        assert not problem.requirement_satisfied("m1", {"a5"})

    def test_is_feasible_all_modules(self, figure1):
        problem = self.make_problem(figure1)
        assert problem.is_feasible({"a3", "a6"})
        assert not problem.is_feasible({"a3"})

    def test_is_feasible_respects_hidable_restriction(self, figure1):
        problem = SecureViewProblem(
            figure1,
            2,
            {"m1": set_list("m1", {"a3"})},
            hidable_attributes=frozenset({"a4"}),
        )
        assert not problem.is_feasible({"a3"})

    def test_required_privatizations(self):
        workflow = example7_chain(2)
        problem = SecureViewProblem(
            workflow,
            2,
            {"m_mid": SetRequirementList(
                "m_mid", [SetRequirement(frozenset({"x0"}), frozenset())]
            )},
        )
        assert problem.required_privatizations({"x0"}) == {"m_head"}
        assert problem.is_feasible({"x0"}, {"m_head"})
        assert not problem.is_feasible({"x0"}, set())

    def test_privatization_disallowed(self):
        workflow = example7_chain(2)
        problem = SecureViewProblem(
            workflow,
            2,
            {"m_mid": SetRequirementList(
                "m_mid", [SetRequirement(frozenset({"x0"}), frozenset())]
            )},
            allow_privatization=False,
        )
        assert not problem.is_feasible({"x0"}, {"m_head"})
        # The declared set stays as given.  The rule drops the attributes of
        # public m_head and m_tail, which are all of them, so m_mid's only
        # option is unrealizable.
        assert problem.hidable_attributes == frozenset(workflow.attribute_names)
        assert problem.hidable == frozenset()
        assert not problem.privatizing
        assert problem.option_sets("m_mid") == ()
        with pytest.raises(InfeasibleError):
            problem.require_feasible()

    def test_price_counts_forced_privatizations(self):
        workflow = example7_chain(2)
        problem = SecureViewProblem(
            workflow,
            2,
            {"m_mid": SetRequirementList(
                "m_mid", [SetRequirement(frozenset({"x0"}), frozenset())]
            )},
        )
        assert problem.privatizing
        head = workflow.module("m_head").privatization_cost
        assert problem.price({"x0"}) == pytest.approx(
            workflow.attribute_cost(["x0"]) + head
        )
        problem.require_feasible()

    def test_solution_cost_and_make_solution(self, figure1):
        problem = self.make_problem(figure1)
        assert problem.price({"a3", "a6"}) == pytest.approx(2.0)
        solution = problem.make_solution({"a3", "a6"})
        assert solution.hidden_attributes == {"a3", "a6"}
        problem.validate_solution(solution)

    def test_validate_solution_rejects_infeasible(self, figure1):
        problem = self.make_problem(figure1)
        bad = problem.make_solution({"a3"})
        with pytest.raises(RequirementError):
            problem.validate_solution(bad)

    def test_solve_auto_produces_feasible_solution(self, figure1):
        from repro.engine import Planner

        problem = self.make_problem(figure1)
        solution = Planner.from_problem(problem).solve("auto").solution
        problem.validate_solution(solution)
