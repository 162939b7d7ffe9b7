"""Tests for the possible-worlds enumerators (Definitions 1, 4 and 6)."""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    Relation,
    Schema,
    Workflow,
    count_standalone_worlds,
    enumerate_standalone_worlds,
    enumerate_workflow_worlds,
    is_standalone_world,
    is_workflow_world,
    standalone_out_set,
    workflow_out_set,
    workflow_out_sets,
)
from repro.core.possible_worlds import check_world_work
from repro.exceptions import PrivacyError, WorkLimitError
from repro.kernel.packing import BitLayout
from repro.workloads import example7_chain, figure1_view_attributes, random_problem


FIGURE2_WORLDS = [
    # R1^1 .. R1^4 from Figure 2 of the paper, as (a1, a2, a3, a4, a5) tuples.
    [(0, 0, 0, 0, 1), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 0, 1)],
    [(0, 0, 0, 1, 1), (0, 1, 1, 1, 0), (1, 0, 1, 0, 0), (1, 1, 1, 0, 1)],
    [(0, 0, 1, 0, 0), (0, 1, 0, 0, 1), (1, 0, 1, 0, 0), (1, 1, 1, 0, 1)],
    [(0, 0, 1, 1, 0), (0, 1, 0, 1, 1), (1, 0, 1, 0, 0), (1, 1, 1, 0, 1)],
]


class TestStandaloneWorlds:
    def test_example2_counts_64_worlds(self, m1):
        assert count_standalone_worlds(m1, figure1_view_attributes()) == 64

    def test_enumeration_matches_count(self, m1):
        worlds = list(enumerate_standalone_worlds(m1, figure1_view_attributes()))
        assert len(worlds) == 64
        # Worlds are distinct relations.
        assert len(set(worlds)) == 64

    def test_true_relation_is_a_world(self, m1):
        assert is_standalone_world(m1.relation(), m1, figure1_view_attributes())

    def test_figure2_sample_relations_are_worlds(self, m1):
        for tuples in FIGURE2_WORLDS:
            candidate = Relation.from_tuples(m1.schema, tuples)
            assert is_standalone_world(candidate, m1, figure1_view_attributes())

    def test_fd_violating_relation_is_not_a_world(self, m1):
        tuples = [(0, 0, 0, 1, 1), (0, 0, 1, 1, 1)]
        candidate = Relation.from_tuples(m1.schema, tuples)
        assert not is_standalone_world(candidate, m1, figure1_view_attributes())

    def test_wrong_projection_is_not_a_world(self, m1):
        tuples = [(0, 0, 1, 1, 1), (0, 1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 1, 0, 1)]
        candidate = Relation.from_tuples(m1.schema, tuples)
        assert not is_standalone_world(candidate, m1, figure1_view_attributes())

    def test_all_visible_single_world(self, m1):
        assert count_standalone_worlds(m1, set(m1.attribute_names)) == 1

    def test_enumeration_respects_max_worlds(self, m1):
        worlds = list(
            enumerate_standalone_worlds(m1, figure1_view_attributes(), max_worlds=5)
        )
        assert len(worlds) == 5

    def test_work_limit_guard(self, m1):
        with pytest.raises(PrivacyError):
            list(enumerate_standalone_worlds(m1, set(), work_limit=1))

    def test_out_set_consistent_with_world_enumeration(self, m1):
        visible = figure1_view_attributes()
        expected = standalone_out_set(m1, {"a1": 0, "a2": 0}, visible)
        observed = set()
        for world in enumerate_standalone_worlds(m1, visible):
            for row in world:
                if row["a1"] == 0 and row["a2"] == 0:
                    observed.add((row["a3"], row["a4"], row["a5"]))
        assert observed == expected


class TestWorkflowWorlds:
    def test_true_provenance_relation_is_a_world(self, figure1):
        relation = figure1.provenance_relation()
        assert is_workflow_world(relation, figure1, set(figure1.attribute_names))

    def test_world_count_everything_visible_is_one(self, figure1):
        worlds = list(
            enumerate_workflow_worlds(figure1, set(figure1.attribute_names))
        )
        assert len(worlds) == 1

    def test_worlds_respect_public_modules(self):
        workflow = example7_chain(1)
        visible = set(workflow.attribute_names) - {"x0"}
        with_public = list(enumerate_workflow_worlds(workflow, visible))
        without_public = list(
            enumerate_workflow_worlds(
                workflow, visible, hidden_public_modules={"m_head"}
            )
        )
        assert len(without_public) >= len(with_public)

    def test_workflow_out_sets_cover_all_inputs(self, figure1):
        visible = set(figure1.attribute_names) - {"a4", "a5"}
        sets = workflow_out_sets(figure1, "m1", visible)
        assert set(sets) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(len(out) == 4 for out in sets.values())

    def test_workflow_out_set_single_input(self, figure1):
        visible = set(figure1.attribute_names) - {"a4", "a5"}
        out = workflow_out_set(figure1, "m1", {"a1": 0, "a2": 0}, visible)
        assert len(out) == 4

    def test_work_limit_guard(self, figure1):
        with pytest.raises(PrivacyError):
            list(enumerate_workflow_worlds(figure1, set(), work_limit=1))

    def test_candidate_with_wrong_visible_projection_rejected(self, figure1):
        relation = figure1.provenance_relation()
        # Flip a visible attribute value in one row.
        rows = [dict(row) for row in relation]
        rows[0]["a1"] = 1 - rows[0]["a1"]
        candidate = Relation(figure1.schema, rows, check_domains=False)
        assert not is_workflow_world(
            candidate, figure1, set(figure1.attribute_names) - {"a4"}
        )


class TestWorkBound:
    """``workflow_out_sets`` checks a work bound read from the schema before
    it builds ``R`` or lists any hidden assignment."""

    @pytest.mark.parametrize("backend", ["kernel", "reference"])
    def test_the_bound_fires_before_anything_is_allocated(self, backend, monkeypatch):
        # R would have 65,536 rows: every initial input is visible, and one
        # hidden boolean makes the bound 2 ** 65,536.
        workflow = random_problem(n_modules=20, kind="cardinality", seed=20).workflow
        module = workflow.private_modules[0]
        visible = set(workflow.attribute_names) - {module.output_names[0]}

        def refuse(*args, **kwargs):
            raise AssertionError("world enumeration allocated before its bound")

        monkeypatch.setattr(Workflow, "provenance_relation", refuse)
        monkeypatch.setattr(BitLayout, "assignment_codes", refuse)
        monkeypatch.setattr(Schema, "iter_assignments", refuse)
        with pytest.raises(WorkLimitError):
            workflow_out_sets(workflow, module.name, visible, backend=backend)

    @pytest.mark.parametrize("limit", [1, 4, 16, 256, 4096])
    def test_the_bound_never_fires_where_enumeration_would_finish(
        self, figure1, limit
    ):
        """Enumeration's own work is ``H ** |pi_V(R)|``; the bound raises only
        where that exceeds the limit, with or without a given relation."""
        relation = figure1.provenance_relation()
        names = figure1.attribute_names
        fired = 0
        for size in range(len(names) + 1):
            for visible in map(set, itertools.combinations(names, size)):
                hidden = figure1.schema.assignment_count(
                    [name for name in names if name not in visible]
                )
                view = relation.project([n for n in names if n in visible])
                work = hidden ** len(view)
                for given in (None, relation):
                    try:
                        check_world_work(figure1, visible, given, limit)
                    except WorkLimitError:
                        fired += 1
                        assert work > limit, (sorted(visible), given is None)
        assert fired

    def test_an_empty_relation_needs_no_work(self, figure1):
        empty = Relation(figure1.schema, [])
        check_world_work(figure1, set(), empty, work_limit=1)
        with pytest.raises(WorkLimitError):
            check_world_work(figure1, set(), work_limit=1)
