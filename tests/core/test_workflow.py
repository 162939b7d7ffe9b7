"""Unit tests for workflow construction, wiring rules and provenance relations."""

from __future__ import annotations

import pytest

from repro.core import Module, Workflow, boolean_attributes
from repro.exceptions import CycleError, SchemaError, WiringError, WorkflowError
from repro.workloads import (
    chain_workflow,
    example5_workflow,
    identity_module,
    layered_workflow,
    random_workflow,
)


def make_copy_module(name, in_names, out_names, private=True):
    ins = boolean_attributes(in_names)
    outs = boolean_attributes(out_names)

    def function(x):
        return {out: x[inp] for inp, out in zip(in_names, out_names)}

    return Module(name, ins, outs, function, private=private)


class TestConstruction:
    def test_duplicate_module_names_rejected(self):
        m = make_copy_module("m", ["a"], ["b"])
        other = make_copy_module("m", ["b"], ["c"])
        with pytest.raises(WorkflowError):
            Workflow([m, other])

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow([])

    def test_duplicate_producers_rejected(self):
        m = make_copy_module("m", ["a"], ["b"])
        other = make_copy_module("n", ["c"], ["b"])
        with pytest.raises(WiringError):
            Workflow([m, other])

    def test_conflicting_attribute_declarations_rejected(self):
        a1 = boolean_attributes(["a"], 1.0)
        a2 = boolean_attributes(["a"], 2.0)
        b, c = boolean_attributes(["b", "c"])
        m = Module("m", a1, [b], lambda x: {"b": x["a"]})
        n = Module("n", a2, [c], lambda x: {"c": x["a"]})
        with pytest.raises(WiringError):
            Workflow([m, n])

    def test_cycle_detection(self):
        m = make_copy_module("m", ["a"], ["b"])
        n = make_copy_module("n", ["b"], ["a"])
        with pytest.raises(CycleError):
            Workflow([m, n])

    def test_topological_order(self, figure1):
        order = figure1.module_names
        assert order.index("m1") < order.index("m2")
        assert order.index("m1") < order.index("m3")

    def test_len_iter_contains(self, figure1):
        assert len(figure1) == 3
        assert {m.name for m in figure1} == {"m1", "m2", "m3"}
        assert "m2" in figure1 and "zzz" not in figure1

    def test_module_lookup_unknown(self, figure1):
        with pytest.raises(WorkflowError):
            figure1.module("nope")


class TestAttributeRoles:
    def test_initial_inputs(self, figure1):
        assert set(figure1.initial_inputs) == {"a1", "a2"}

    def test_final_outputs(self, figure1):
        assert set(figure1.final_outputs) == {"a6", "a7"}

    def test_intermediate_attributes(self, figure1):
        # a3, a4, a5 are produced by m1 and consumed by m2/m3.
        assert set(figure1.intermediate_attributes) == {"a3", "a4", "a5"}

    def test_producer_and_consumers(self, figure1):
        assert figure1.producer_of("a3").name == "m1"
        assert figure1.producer_of("a1") is None
        assert {m.name for m in figure1.consumers_of("a4")} == {"m2", "m3"}
        assert figure1.consumers_of("a7") == ()

    def test_unknown_attribute_raises(self, figure1):
        with pytest.raises(SchemaError):
            figure1.producer_of("zzz")

    def test_data_sharing_degree(self, figure1):
        assert figure1.data_sharing_degree() == 2
        assert figure1.has_bounded_data_sharing(2)
        assert not figure1.has_bounded_data_sharing(1)

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda s=s: random_workflow(8, seed=s) for s in range(4)),
            lambda: random_workflow(8, seed=3, max_sharing=2),
            lambda: chain_workflow(5, width=3, seed=1),
            *(lambda s=s: layered_workflow(3, 3, seed=s) for s in range(3)),
            lambda: layered_workflow(3, 4, seed=2, max_sharing=1),
            lambda: example5_workflow(5),
        ],
    )
    def test_data_sharing_degree_counts_consumers(self, build):
        """γ, counted once when the workflow is built, is Definition 3's
        largest number of modules one attribute feeds."""
        workflow = build()
        expected = max(
            len(workflow.consumers_of(name)) for name in workflow.attribute_names
        )
        assert workflow.data_sharing_degree() == expected

    def test_functional_dependencies(self, figure1):
        fds = dict(
            (tuple(sorted(det)), tuple(sorted(dep)))
            for det, dep in figure1.functional_dependencies()
        )
        assert fds[("a1", "a2")] == ("a3", "a4", "a5")

    def test_private_public_partition(self):
        private = make_copy_module("p", ["a"], ["b"], private=True)
        public = make_copy_module("q", ["b"], ["c"], private=False)
        workflow = Workflow([private, public])
        assert [m.name for m in workflow.private_modules] == ["p"]
        assert [m.name for m in workflow.public_modules] == ["q"]
        assert not workflow.is_all_private


class TestExecution:
    def test_run_produces_all_attributes(self, figure1):
        result = figure1.run({"a1": 0, "a2": 1})
        assert set(result) == set(figure1.attribute_names)
        assert result["a3"] == 1 and result["a6"] == 0 and result["a7"] == 1

    def test_run_missing_input_raises(self, figure1):
        with pytest.raises(WorkflowError):
            figure1.run({"a1": 0})

    def test_run_many(self, figure1):
        rows = figure1.run_many([{"a1": 0, "a2": 0}, {"a1": 1, "a2": 1}])
        assert len(rows) == 2

    def test_provenance_relation_matches_figure1b(self, figure1):
        relation = figure1.provenance_relation()
        assert len(relation) == 4
        expected = {"a1": 1, "a2": 1, "a3": 1, "a4": 0, "a5": 1, "a6": 1, "a7": 1}
        assert expected in relation

    def test_provenance_relation_cached(self, figure1):
        assert figure1.provenance_relation() is figure1.provenance_relation()

    def test_provenance_relation_for_subset(self, figure1):
        relation = figure1.provenance_relation_for([{"a1": 0, "a2": 0}])
        assert len(relation) == 1

    def test_join_relation_consistent_with_executions(self, figure1):
        joined = figure1.join_relation()
        executed = figure1.provenance_relation()
        for row in executed:
            assert row in joined

    def test_satisfies_all_module_fds(self, figure1):
        relation = figure1.provenance_relation()
        for det, dep in figure1.functional_dependencies():
            assert relation.satisfies_fd(det, dep)


class TestDerivedWorkflows:
    def test_with_privatized(self):
        private = make_copy_module("p", ["a"], ["b"], private=True)
        public = make_copy_module("q", ["b"], ["c"], private=False)
        workflow = Workflow([private, public])
        privatized = workflow.with_privatized(["q"])
        assert privatized.is_all_private
        # The original workflow is untouched.
        assert not workflow.is_all_private

    def test_with_privatized_unknown_module(self, figure1):
        with pytest.raises(WorkflowError):
            figure1.with_privatized(["nope"])

    def test_with_modules_replaced_schema_checked(self, figure1):
        wrong = identity_module("m2", ["a3"], ["zzz"])
        with pytest.raises(WorkflowError):
            figure1.with_modules_replaced({"m2": wrong})

    def test_attribute_and_privatization_costs(self):
        private = make_copy_module("p", ["a"], ["b"], private=True)
        public = Module(
            "q",
            boolean_attributes(["b"]),
            boolean_attributes(["c"]),
            lambda x: {"c": x["b"]},
            private=False,
            privatization_cost=7.0,
        )
        workflow = Workflow([private, public])
        assert workflow.attribute_cost(["a", "b"]) == pytest.approx(2.0)
        assert workflow.privatization_cost(["q"]) == pytest.approx(7.0)
        # Privatizing a private module costs nothing.
        assert workflow.privatization_cost(["p"]) == pytest.approx(0.0)
