"""Tests for requirement lists (set and cardinality constraints)."""

from __future__ import annotations

import pytest

from repro.core import (
    BOOLEAN,
    Attribute,
    CardinalityRequirement,
    CardinalityRequirementList,
    Module,
    SecureViewProblem,
    SetRequirement,
    SetRequirementList,
    Workflow,
    derive_cardinality_requirements,
    derive_set_requirements,
    derive_workflow_requirements,
)
from repro.exceptions import RequirementError
from repro.workloads import (
    example6_majority_module,
    example6_one_one_module,
    example7_chain,
    figure1_m1_module,
)


class TestSetRequirement:
    def test_satisfied_by_superset(self):
        option = SetRequirement(frozenset({"a"}), frozenset({"b"}))
        assert option.satisfied_by({"a", "b", "c"})
        assert not option.satisfied_by({"a"})

    def test_dominates(self):
        small = SetRequirement(frozenset({"a"}), frozenset())
        big = SetRequirement(frozenset({"a"}), frozenset({"b"}))
        assert small.dominates(big)
        assert not big.dominates(small)


class TestSetRequirementList:
    def make(self) -> SetRequirementList:
        return SetRequirementList(
            "m",
            [
                SetRequirement(frozenset({"a"}), frozenset()),
                SetRequirement(frozenset(), frozenset({"b", "c"})),
                SetRequirement(frozenset({"a"}), frozenset({"b"})),
            ],
        )

    def test_empty_list_rejected(self):
        with pytest.raises(RequirementError):
            SetRequirementList("m", [])

    def test_satisfied_by_any_option(self):
        requirement = self.make()
        assert requirement.satisfied_by({"a"})
        assert requirement.satisfied_by({"b", "c"})
        assert not requirement.satisfied_by({"b"})

    def test_cheapest_option(self):
        requirement = self.make()
        costs = {"a": 10.0, "b": 1.0, "c": 1.0}
        a, b, c = (Attribute(name, BOOLEAN, cost) for name, cost in costs.items())
        module = Module("m", [a], [b, c], lambda x: {"b": x["a"], "c": x["a"]})
        problem = SecureViewProblem(Workflow([module]), 2, {"m": requirement})
        assert problem.cheapest_option_set("m") == {"b", "c"}

    def test_normalized_removes_dominated(self):
        requirement = self.make().normalized()
        # {a, b} is dominated by {a}.
        assert len(requirement) == 2
        assert all(option.attributes != {"a", "b"} for option in requirement)

    def test_validate_against_module(self, m1):
        good = SetRequirementList(
            "m1", [SetRequirement(frozenset({"a1"}), frozenset({"a3"}))]
        )
        good.validate_against(m1)
        bad = SetRequirementList(
            "m1", [SetRequirement(frozenset({"a3"}), frozenset())]
        )
        with pytest.raises(RequirementError):
            bad.validate_against(m1)

    def test_max_option_size(self):
        assert self.make().max_option_size == 2


class TestCardinalityRequirement:
    def test_negative_rejected(self):
        with pytest.raises(RequirementError):
            CardinalityRequirement(-1, 0)

    def test_satisfied_by_counts(self, m1):
        requirement = CardinalityRequirement(1, 2)
        assert requirement.satisfied_by({"a1", "a3", "a4"}, m1)
        assert not requirement.satisfied_by({"a1", "a3"}, m1)

    def test_dominates(self):
        assert CardinalityRequirement(1, 0).dominates(CardinalityRequirement(2, 1))
        assert not CardinalityRequirement(2, 0).dominates(CardinalityRequirement(1, 1))


class TestCardinalityRequirementList:
    def make(self) -> CardinalityRequirementList:
        return CardinalityRequirementList(
            "m1",
            [
                CardinalityRequirement(2, 0),
                CardinalityRequirement(0, 2),
                CardinalityRequirement(2, 1),
            ],
        )

    def test_empty_rejected(self):
        with pytest.raises(RequirementError):
            CardinalityRequirementList("m", [])

    def test_satisfied_by(self, m1):
        requirement = self.make()
        assert requirement.satisfied_by({"a1", "a2"}, m1)
        assert requirement.satisfied_by({"a3", "a4"}, m1)
        assert not requirement.satisfied_by({"a1", "a3"}, m1)

    def test_normalized_keeps_pareto_frontier(self):
        requirement = self.make().normalized()
        pairs = {(option.alpha, option.beta) for option in requirement}
        assert pairs == {(2, 0), (0, 2)}

    def test_validate_against_bounds(self, m1):
        too_many_inputs = CardinalityRequirementList(
            "m1", [CardinalityRequirement(3, 0)]
        )
        with pytest.raises(RequirementError):
            too_many_inputs.validate_against(m1)
        too_many_outputs = CardinalityRequirementList(
            "m1", [CardinalityRequirement(0, 4)]
        )
        with pytest.raises(RequirementError):
            too_many_outputs.validate_against(m1)

    def test_expansion_to_set_requirements(self, m1):
        requirement = CardinalityRequirementList("m1", [CardinalityRequirement(0, 2)])
        expanded = requirement.to_set_requirements(m1)
        assert len(expanded) == 3  # C(3, 2) choices of output pairs
        assert all(len(option.attributes) == 2 for option in expanded)


class TestDerivation:
    def test_derived_set_requirements_match_example3(self):
        module = figure1_m1_module()
        requirement = derive_set_requirements(module, 4)
        attribute_sets = {frozenset(option.attributes) for option in requirement}
        # Hiding any two of the three outputs is safe for Γ = 4 (Example 3).
        assert frozenset({"a4", "a5"}) in attribute_sets
        assert frozenset({"a3", "a4"}) in attribute_sets
        assert frozenset({"a3", "a5"}) in attribute_sets

    def test_derived_cardinality_requirements_one_one(self):
        module = example6_one_one_module(2)
        requirement = derive_cardinality_requirements(module, 4)
        pairs = {(option.alpha, option.beta) for option in requirement}
        assert (2, 0) in pairs and (0, 2) in pairs

    def test_derived_cardinality_requirements_majority(self):
        module = example6_majority_module(2)
        requirement = derive_cardinality_requirements(module, 2)
        pairs = {(option.alpha, option.beta) for option in requirement}
        assert (0, 1) in pairs and (3, 0) in pairs

    def test_derivation_infeasible_gamma(self):
        module = example6_majority_module(2)
        with pytest.raises(RequirementError):
            derive_cardinality_requirements(module, 100)

    def test_workflow_requirements_cover_private_modules_only(self):
        workflow = example7_chain(2)
        lists = derive_workflow_requirements(workflow, 2, kind="set")
        assert set(lists) == {"m_mid"}

    def test_workflow_requirements_unknown_kind(self, figure1):
        with pytest.raises(RequirementError):
            derive_workflow_requirements(figure1, 2, kind="weird")

    def test_example6_set_list_blowup_vs_cardinality(self):
        # The Example-6 contrast: the set list is much longer than the
        # cardinality list for the same one-one module.
        module = example6_one_one_module(2)
        set_list = derive_set_requirements(module, 4)
        card_list = derive_cardinality_requirements(module, 4)
        assert len(set_list) > len(card_list)
