"""Tests for the solver registry: registration, metadata, auto-selection."""

from __future__ import annotations

import pytest

from repro.engine import SolverRegistry, default_registry
from repro.exceptions import SolverError
from repro.workloads import random_problem


class TestDefaultRegistry:
    def test_every_optim_solver_is_registered(self):
        # The registry is the only name table: the 10 algorithms of
        # repro.optim plus the exact_ip alias, and nothing else.
        expected = {
            "lp_rounding",
            "set_lp",
            "general_lp",
            "greedy",
            "union_standalone",
            "exact",
            "exact_ip",
            "exact_enum",
            "hide_everything",
            "hide_intermediate",
            "random",
        }
        assert set(default_registry().names()) == expected

    def test_aliases_resolve_to_same_spec(self):
        registry = default_registry()
        assert registry.get("exact_ip") is registry.get("exact")

    def test_unknown_solver_raises(self):
        with pytest.raises(SolverError, match="unknown solver"):
            default_registry().get("simulated_annealing")

    def test_specs_sorted_by_rank(self):
        ranks = [spec.cost_rank for spec in default_registry().specs()]
        assert ranks == sorted(ranks)

    def test_metadata_records(self):
        record = default_registry().get("lp_rounding").as_record()
        assert record["constraints"] == "cardinality"
        assert record["randomized"] is True


class TestApplicability:
    def test_cardinality_excludes_set_only_solvers(self):
        problem = random_problem(n_modules=5, kind="cardinality", seed=0)
        names = {s.name for s in default_registry().applicable(problem)}
        assert "lp_rounding" in names
        assert "set_lp" not in names

    def test_set_excludes_cardinality_only_solvers(self):
        problem = random_problem(n_modules=5, kind="set", seed=0)
        names = {s.name for s in default_registry().applicable(problem)}
        assert "set_lp" in names
        assert "lp_rounding" not in names

    def test_mixed_workflow_needs_general_scope(self):
        problem = random_problem(
            n_modules=6, kind="set", seed=2, private_fraction=0.5
        )
        assert problem.workflow.public_modules
        names = {s.name for s in default_registry().applicable(problem)}
        assert "general_lp" in names
        assert "set_lp" not in names  # declared all-private scope


class TestAutoSelection:
    def test_auto_matches_historical_choice_set(self):
        problem = random_problem(n_modules=5, kind="set", seed=0)
        assert default_registry().select(problem).name == "set_lp"

    def test_auto_matches_historical_choice_cardinality(self):
        problem = random_problem(n_modules=5, kind="cardinality", seed=0)
        assert default_registry().select(problem).name == "lp_rounding"

    def test_auto_matches_historical_choice_general(self):
        problem = random_problem(
            n_modules=6, kind="set", seed=2, private_fraction=0.5
        )
        assert default_registry().select(problem).name == "general_lp"

    def test_auto_never_picks_a_baseline(self):
        for seed in range(3):
            for kind in ("set", "cardinality"):
                problem = random_problem(n_modules=5, kind=kind, seed=seed)
                assert not default_registry().select(problem).baseline


class TestCustomRegistration:
    def test_decorator_registers_and_dispatches(self):
        registry = SolverRegistry()

        @registry.register(
            "cardinality-lp", constraints="cardinality", scope="all-private"
        )
        def my_solver(problem, seed=None):
            return "sentinel"

        spec = registry.get("cardinality-lp")
        assert spec.fn(None) == "sentinel"
        assert spec.accepts == {"seed"}
        assert not spec.accepts_any

    def test_duplicate_name_rejected(self):
        registry = SolverRegistry()
        registry.register("one")(lambda problem: None)
        with pytest.raises(SolverError, match="already registered"):
            registry.register("one")(lambda problem: None)

    def test_bad_metadata_rejected(self):
        registry = SolverRegistry()
        with pytest.raises(SolverError, match="constraints"):
            registry.register("bad", constraints="fuzzy")(lambda problem: None)

    def test_unsupported_option_rejected_ambient_dropped(self):
        registry = SolverRegistry()

        @registry.register("plain")
        def plain(problem):
            return None

        spec = registry.get("plain")
        # Ambient randomness is dropped silently for deterministic solvers...
        assert spec.accepted_kwargs({"seed": 3}) == {}
        # ...but explicit unknown options are an error, not a silent no-op.
        with pytest.raises(SolverError, match="does not accept option"):
            spec.accepted_kwargs({"scale": 2.0})
