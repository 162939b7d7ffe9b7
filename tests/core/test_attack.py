"""Tests for the reconstruction-attack adversary simulation."""

from __future__ import annotations

import pytest

from repro.core import (
    SecureViewProblem,
    candidate_outputs,
    reconstruction_attack,
)
from repro.exceptions import PrivacyError
from repro.optim import solve_exact_ip
from repro.workloads import example7_chain


class TestCandidateOutputs:
    def test_fully_visible_view_pins_output(self, figure1):
        out = candidate_outputs(
            figure1, "m1", {"a1": 0, "a2": 0}, set(figure1.attribute_names)
        )
        assert out == {(0, 1, 1)}

    def test_protected_view_keeps_gamma_candidates(self, figure1):
        visible = set(figure1.attribute_names) - {"a4", "a5"}
        out = candidate_outputs(figure1, "m1", {"a1": 1, "a2": 0}, visible)
        assert len(out) == 4

    def test_unknown_input_rejected(self, tiny_chain):
        with pytest.raises(PrivacyError):
            candidate_outputs(
                tiny_chain,
                "second",
                {"b0": 0, "b1": 0},
                set(tiny_chain.attribute_names),
                relation=tiny_chain.provenance_relation_for([{"a0": 0, "a1": 1}]),
            )


class TestReconstructionAttack:
    def test_unprotected_view_recovers_the_module(self, figure1):
        report = reconstruction_attack(
            figure1, "m1", set(figure1.attribute_names), gamma_target=2
        )
        assert report.achieved_gamma == 1
        assert report.breaches_target
        assert all(exposure.recovered_correctly for exposure in report.exposures)
        assert report.worst_guessing_probability == 1.0

    def test_protected_view_meets_gamma(self, figure1):
        problem = SecureViewProblem.from_standalone_analysis(figure1, 2, kind="set")
        solution = solve_exact_ip(problem)
        report = reconstruction_attack(
            figure1, "m1", solution.visible_attributes, gamma_target=2
        )
        assert not report.breaches_target
        assert report.worst_guessing_probability <= 0.5
        assert not report.exposed_inputs

    def test_guessing_probability_is_one_over_gamma(self, figure1):
        visible = set(figure1.attribute_names) - {"a4", "a5"}
        report = reconstruction_attack(figure1, "m1", visible, gamma_target=4)
        assert report.achieved_gamma == 4
        assert report.worst_guessing_probability == pytest.approx(0.25)
        assert report.average_guessing_probability == pytest.approx(0.25)

    def test_public_module_awareness(self):
        workflow = example7_chain(2)
        middle = workflow.module("m_mid")
        visible = set(workflow.attribute_names) - set(middle.input_names)
        unaware = reconstruction_attack(
            workflow, "m_mid", visible, hidden_public_modules={"m_head"}, gamma_target=4
        )
        aware = reconstruction_attack(workflow, "m_mid", visible, gamma_target=4)
        assert unaware.achieved_gamma >= 4
        assert aware.achieved_gamma == 1
        assert aware.breaches_target and not unaware.breaches_target

    def test_records_shape(self, figure1):
        report = reconstruction_attack(figure1, "m1", set(figure1.attribute_names))
        records = report.as_records()
        assert len(records) == 4
        assert {"input", "candidates", "guess_probability", "exposed"} <= set(
            records[0]
        )

    def test_an_attack_over_the_work_limit_builds_no_relation(self, monkeypatch):
        """Every initial input visible and one output hidden: the relation
        would have 65,536 rows, and the schema bound rejects enumeration
        before it is built."""
        from repro.core import Workflow
        from repro.exceptions import WorkLimitError
        from repro.workloads import random_problem

        workflow = random_problem(n_modules=20, kind="cardinality", seed=20).workflow
        module = workflow.private_modules[0]
        visible = set(workflow.attribute_names) - {module.output_names[0]}

        def refuse(self):
            raise AssertionError("the attack built the workflow relation")

        monkeypatch.setattr(Workflow, "provenance_relation", refuse)
        with pytest.raises(WorkLimitError):
            reconstruction_attack(workflow, module.name, visible)
