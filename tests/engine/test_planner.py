"""Tests for the Planner facade and the shared derivation cache."""

from __future__ import annotations

import random
import time

import pytest

from repro.core import SecureViewProblem, Workflow
from repro.core.module import Module
from repro.core.possible_worlds import DEFAULT_WORK_LIMIT
from repro.engine import DerivationCache, Planner, default_registry
from repro.exceptions import SolverError
from repro.kernel.packing import BitLayout
from repro.optim.lp import LinearProgram
from repro.workloads import (
    example5_problem,
    figure1_workflow,
    random_problem,
    random_workflow,
)


def _refuse_relation(self):
    raise AssertionError("the certificate built the workflow relation")


@pytest.fixture
def figure1_planner() -> Planner:
    return Planner(figure1_workflow(), 2, kind="set")


class TestSolve:
    def test_auto_solves_figure1_with_valid_solver(self, figure1_planner):
        result = figure1_planner.solve()
        assert result.requested == "auto"
        assert result.solver in default_registry()
        assert result.cost > 0
        figure1_planner.problem().validate_solution(result.solution)

    def test_every_registered_solver_reachable_by_name(self, figure1_planner):
        problem = figure1_planner.problem()
        for spec in figure1_planner.solvers():
            result = figure1_planner.solve(solver=spec.name, seed=0)
            assert result.solver == spec.name
            problem.validate_solution(result.solution)
            assert result.cost >= 0
            assert result.seconds >= 0

    def test_result_record_is_flat(self, figure1_planner):
        record = figure1_planner.solve(solver="exact").as_record()
        assert record["method"] == "exact"
        assert record["guarantee"] == "optimal"
        assert isinstance(record["cost"], float)

    def test_unknown_solver_raises(self, figure1_planner):
        with pytest.raises(SolverError, match="unknown solver"):
            figure1_planner.solve(solver="does-not-exist")

    def test_unsupported_option_raises(self, figure1_planner):
        with pytest.raises(SolverError, match="does not accept option"):
            figure1_planner.solve(solver="greedy", scale=2.0)

    @pytest.mark.parametrize(
        "kind, solver", [("set", "lp_rounding"), ("cardinality", "set_lp")]
    )
    def test_wrong_kind_solver_refused_before_dispatch(self, kind, solver):
        planner = Planner(figure1_workflow(), 2, kind=kind)
        with pytest.raises(SolverError, match="constraints"):
            planner.solve(solver=solver)

    def test_local_search_never_worse(self, figure1_planner):
        base = figure1_planner.solve(solver="greedy")
        improved = figure1_planner.solve(solver="greedy", local_search=True)
        assert improved.cost <= base.cost + 1e-9


class TestRandomness:
    def test_seed_reproducible_end_to_end(self):
        problem = random_problem(n_modules=8, kind="cardinality", seed=4)
        planner = Planner.from_problem(problem)
        first = planner.solve(solver="lp_rounding", seed=13)
        second = planner.solve(solver="lp_rounding", seed=13)
        assert first.hidden_attributes == second.hidden_attributes
        assert first.cost == second.cost

    def test_rng_takes_precedence_over_seed(self):
        problem = random_problem(n_modules=8, kind="cardinality", seed=4)
        planner = Planner.from_problem(problem)
        via_rng = planner.solve(solver="lp_rounding", rng=random.Random(99), seed=13)
        via_seed = planner.solve(solver="lp_rounding", seed=99)
        assert via_rng.hidden_attributes == via_seed.hidden_attributes

    def test_seed_silently_ignored_by_deterministic_solver(self, figure1_planner):
        result = figure1_planner.solve(solver="exact", seed=5)
        assert result.solver == "exact"


class TestRelaxationReuse:
    """A relaxation depends on the problem only; every seed reuses it."""

    @staticmethod
    def _count_relaxations(monkeypatch) -> list[bool]:
        calls: list[bool] = []
        original = LinearProgram.solve

        def counting(program, integral=False):
            calls.append(integral)
            return original(program, integral)

        monkeypatch.setattr(LinearProgram, "solve", counting)
        return calls

    @staticmethod
    def _outcome(result):
        return (
            result.hidden_attributes,
            result.privatized_modules,
            result.cost,
            result.guarantee,
            result.solution.meta,
        )

    @pytest.mark.parametrize(
        "kind, solver", [("cardinality", "lp_rounding"), ("set", "set_lp")]
    )
    def test_seeds_share_one_relaxation(self, monkeypatch, kind, solver):
        calls = self._count_relaxations(monkeypatch)
        planner = Planner(figure1_workflow(), 2, kind=kind)
        results = [planner.solve(solver, seed=seed) for seed in (0, 1)]
        assert calls == [False]
        for seed, result in zip((0, 1), results):
            fresh = Planner(figure1_workflow(), 2, kind=kind)
            assert self._outcome(result) == self._outcome(
                fresh.solve(solver, seed=seed)
            )

    def test_cost_override_solves_its_own_relaxation(self, monkeypatch):
        calls = self._count_relaxations(monkeypatch)
        planner = Planner(figure1_workflow(), 2, kind="set")
        planner.solve("set_lp")
        planner.solve("set_lp", costs={"a3": 10.0})
        assert calls == [False, False]


class TestDerivationSharing:
    def test_two_solver_sweep_derives_once(self):
        planner = Planner(figure1_workflow(), 2, kind="set")
        planner.solve(solver="set_lp")
        planner.solve(solver="greedy")
        stats = planner.cache.stats()
        assert stats.derivation_misses == 1

    def test_shared_cache_across_planners_hits(self):
        workflow = figure1_workflow()
        cache = DerivationCache()
        Planner(workflow, 2, kind="set", cache=cache).solve(solver="greedy")
        Planner(workflow, 2, kind="set", cache=cache).solve(solver="set_lp")
        stats = cache.stats()
        assert stats.derivation_misses == 1
        assert stats.derivation_hits >= 1

    def test_from_problem_never_rederives(self):
        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        planner = Planner.from_problem(problem)
        planner.solve(solver="greedy")
        planner.solve(solver="set_lp")
        assert planner.cache.stats().derivation_misses == 0

    def test_distinct_gamma_is_a_distinct_entry(self):
        workflow = figure1_workflow()
        cache = DerivationCache()
        Planner(workflow, 1, kind="set", cache=cache).solve(solver="greedy")
        Planner(workflow, 2, kind="set", cache=cache).solve(solver="greedy")
        assert cache.stats().derivation_misses == 2


class TestCostOverrides:
    def test_costs_steer_the_optimum_without_rederiving(self, figure1_planner):
        base = figure1_planner.solve(solver="exact")
        derivations = figure1_planner.cache.stats().derivation_misses
        expensive = next(iter(base.hidden_attributes))
        steered = figure1_planner.solve(
            solver="exact", costs={expensive: 1000.0}
        )
        assert expensive not in steered.hidden_attributes
        assert figure1_planner.cache.stats().derivation_misses == derivations

    def test_auto_resolves_on_the_cost_overridden_problem_only(self):
        # ``auto`` is chosen on the instance being solved; building the
        # base problem first would derive once and then hit the cache.
        planner = Planner(figure1_workflow(), 2, kind="set")
        result = planner.solve(costs={"a3": 10.0})
        assert result.requested == "auto"
        stats = planner.cache.stats()
        assert stats.derivation_misses == 1
        assert stats.derivation_hits == 0

    def test_unknown_cost_attribute_raises(self, figure1_planner):
        with pytest.raises(Exception, match="unknown attributes"):
            figure1_planner.solve(solver="exact", costs={"zz": 1.0})


class TestVerification:
    def test_exact_solution_certified(self, figure1_planner):
        result = figure1_planner.solve(solver="exact")
        assert result.certificate is not None
        assert result.certificate.ok
        assert set(result.certificate.module_levels) == {"m1", "m2", "m3"}
        assert all(
            level >= 2 for level in result.certificate.module_levels.values()
        )

    def test_bad_view_fails_certification(self, figure1_planner):
        problem = figure1_planner.problem()
        # Hiding nothing cannot be Γ=2 private for any private module.
        bare = problem.make_solution(frozenset())
        certificate = figure1_planner.verify(bare)
        assert not certificate.ok
        assert certificate.weakest_module in {"m1", "m2", "m3"}

    def test_repeated_verification_hits_the_cache(self, tmp_path, monkeypatch):
        planner = Planner(figure1_workflow(), 2, store=str(tmp_path / "store"))
        result = planner.solve(solver="exact")
        before = planner.cache.stats()
        monkeypatch.setattr(Workflow, "provenance_relation", _refuse_relation)
        again = planner.verify(result.solution)
        delta = planner.cache.stats().delta(before)
        assert again == result.certificate
        # Every module pack comes from the memory front: no store probe.
        assert delta.store_hits == delta.store_misses == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_five_module_views_are_certified_by_composition(self, seed):
        """World enumeration exceeds its work limit on these instances;
        Theorems 4 and 8 certify each module from its standalone level."""
        result = Planner(random_workflow(5, seed=seed), 2).solve()
        assert result.certificate.ok
        assert set(result.certificate.module_levels.values()) == {2}

    def test_store_backed_verify_builds_no_relation_and_no_workflow_file(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(Workflow, "provenance_relation", _refuse_relation)
        store = tmp_path / "store"
        for _ in range(2):  # cold, then warm
            planner = Planner(random_workflow(5, seed=0), 2, store=str(store))
            assert planner.solve("greedy").certificate.ok
        assert [path.name for path in store.iterdir()] == ["modules"]


@pytest.fixture
def bounded_tabulation(monkeypatch):
    """Fail any module tabulation past the work limit."""
    tabulate = Module.relation

    def bounded(module):
        assert module.domain_size() <= DEFAULT_WORK_LIMIT, module.name
        return tabulate(module)

    monkeypatch.setattr(Module, "relation", bounded)


class TestCertificateNeverFailsASolve:
    @pytest.mark.parametrize(
        "draw",
        [
            {"n_modules": 30, "seed": 9, "topology": "layered"},
            {"n_modules": 20, "seed": 20},
        ],
    )
    def test_an_undetermined_module_answers_at_once(self, draw, monkeypatch):
        """Baked lists the theorems cannot certify: world enumeration would
        list 2**37 hidden assignments (layered) or build a 65,536-row
        relation (random), so the certificate leaves those modules
        undetermined without allocating either."""
        planner = Planner.from_problem(random_problem(kind="cardinality", **draw))

        def refuse_codes(self, names):
            raise AssertionError("the certificate listed hidden assignments")

        monkeypatch.setattr(Workflow, "provenance_relation", _refuse_relation)
        monkeypatch.setattr(BitLayout, "assignment_codes", refuse_codes)
        started = time.perf_counter()
        result = planner.solve()
        assert time.perf_counter() - started < 1.0
        certificate = result.certificate
        assert certificate.ok is None
        assert None in certificate.module_levels.values()
        assert certificate.as_dict()["ok"] is None
        assert result.as_record()["verified"] is None

    def test_no_module_is_tabulated_past_the_work_limit(self, bounded_tabulation):
        """Example 5 at n = 32: ``m'`` reads 32 booleans, so its pack would
        hold 2**32 rows.  The certificate leaves it to enumeration, which
        finishes on ``exact``'s view (the relation has two rows) and is
        over its limit on greedy's (33 hidden booleans)."""
        planner = Planner.from_problem(example5_problem(32))
        exact = planner.solve("exact").certificate
        assert exact.ok is True and exact.module_levels["m_prime"] == 2
        greedy = planner.solve("greedy").certificate
        assert greedy.ok is None and greedy.module_levels["m_prime"] is None
        assert set(greedy.module_levels.values()) == {2, None}

    def test_a_wide_public_module_is_not_tabulated(self, bounded_tabulation):
        """Example 5 with ``m'`` public and nothing hidden: enumeration runs
        (the relation has two rows) and checks ``m'`` only on the inputs its
        candidate rows carry, not over its 2**32."""
        base = example5_problem(32)
        wide = base.workflow.module("m_prime")
        public = Module(
            wide.name,
            list(wide.input_schema),
            list(wide.output_schema),
            wide.apply,
            private=False,
        )
        workflow = Workflow(
            [public if m.name == wide.name else m for m in base.workflow.modules]
        )
        lists = {k: v for k, v in base.requirements.items() if k != wide.name}
        problem = SecureViewProblem(workflow, 2, lists)
        certificate = Planner.from_problem(problem).verify(
            problem.make_solution(frozenset())
        )
        assert certificate.ok is False
        assert set(certificate.module_levels.values()) == {1}


class TestSolverListing:
    """Planner.solvers() must be deterministically ordered (regression)."""

    def test_listing_is_deterministic_across_calls(self, figure1_planner):
        names = [spec.name for spec in figure1_planner.solvers()]
        for _ in range(3):
            assert [spec.name for spec in figure1_planner.solvers()] == names

    def test_listing_ordered_by_cost_rank_then_name(self, figure1_planner):
        specs = figure1_planner.solvers(applicable_only=False)
        keys = [(spec.cost_rank, spec.name) for spec in specs]
        assert keys == sorted(keys)

    def test_applicable_listing_preserves_rank_order(self, figure1_planner):
        specs = figure1_planner.solvers()
        keys = [(spec.cost_rank, spec.name) for spec in specs]
        assert keys == sorted(keys)
        assert specs  # figure 1 always has applicable solvers


class TestPinBounds:
    """Pinned workflows/modules are bounded so long-lived caches cannot leak."""

    def test_workflow_pins_evict_oldest_with_their_entries(self):
        cache = DerivationCache(max_pins=3)
        workflows = [figure1_workflow() for _ in range(6)]
        for workflow in workflows:
            cache.requirements(workflow, 2, "set")
        assert len(cache._workflows) <= 3
        # Evicted pins took their id-keyed requirement entries with them.
        live = set(cache._workflows)
        assert all(key[0] in live for key in cache._requirements)
        # The survivors still answer from memory (hit, no re-derivation).
        before = cache.stats().derivation_misses
        cache.requirements(workflows[-1], 2, "set")
        assert cache.stats().derivation_misses == before

    def test_seeded_workflows_are_never_evicted(self):
        cache = DerivationCache(max_pins=2)
        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        seeded = Planner.from_problem(problem, cache=cache)
        for _ in range(5):
            cache.requirements(figure1_workflow(), 2, "set")
        # The seeded workflow outlives the churn and still solves from its
        # caller-provided (non-re-derivable) requirement lists.
        assert id(problem.workflow) in cache._workflows
        assert seeded.solve(solver="exact").cost == 3.0

    def test_module_pins_are_bounded(self):
        cache = DerivationCache(max_pins=2)
        for _ in range(5):
            workflow = figure1_workflow()
            for module in workflow.private_modules:
                cache.module_requirement(module, 2, "set")
        assert len(cache._modules) <= 2 + len(figure1_workflow().private_modules)
        assert len(cache._module_fingerprints) == len(cache._modules)
