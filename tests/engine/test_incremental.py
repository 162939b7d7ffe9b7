"""Module-granular derivation: shared module tier, Planner.evolve, families.

PR 4 re-keys the derivation pipeline from workflow granularity down to
module granularity.  These tests pin the load-bearing behaviours:

* per-module requirement lists and compiled packs are shared by *content*
  fingerprint — across workflow objects, cost variants and edit-chains, in
  memory and through the store's ``modules/`` tier;
* ``Planner.evolve`` re-derives exactly the modules whose content changed
  and never changes an answer relative to a cold solve;
* general (mixed public/private) workflows round-trip identically through
  the Planner+store path, ``privatization_closure`` results included;
* the sweep executor groups instances into shared-module families so a
  family grid pays each distinct module derivation once.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    Module,
    Workflow,
    boolean_attributes,
    privatization_closure,
)
from repro.engine import (
    DerivationCache,
    DerivationStore,
    Planner,
    SweepInstance,
    SweepSpec,
    run_sweep,
)
from repro.engine.executor import _chunks_for
from repro.exceptions import WorkflowError
from repro.kernel import CompiledModule
from repro.workloads import (
    module_fingerprint,
    workflow_family,
    workflow_to_dict,
)


def _signature(lists):
    """Structural form of a requirement mapping for equality checks."""
    out = {}
    for name, lst in lists.items():
        options = []
        for option in lst:
            if hasattr(option, "alpha"):
                options.append(("card", option.alpha, option.beta))
            else:
                options.append(
                    (
                        "set",
                        tuple(sorted(option.hidden_inputs)),
                        tuple(sorted(option.hidden_outputs)),
                    )
                )
        out[name] = sorted(options)
    return out


@pytest.fixture
def family():
    return workflow_family(n_variants=2, seed=11, n_modules=4, topology="chain")


class TestSharedModuleTier:
    def test_edit_chain_rederives_only_changed_modules(self, family):
        base, v1, _ = family
        cache = DerivationCache()
        cache.requirements(base, 2, "set")
        assert cache.rederived_modules == len(base)

        cache.requirements(v1, 2, "set")
        changed = sum(
            1
            for m in v1.modules
            if module_fingerprint(m) != module_fingerprint(base.module(m.name))
        )
        assert changed == 1
        assert cache.rederived_modules == len(base) + 1
        assert cache.reused_modules == len(base) - 1

    def test_assembly_matches_whole_workflow_derivation(self, family):
        from repro.core import derive_workflow_requirements

        base = family[0]
        assembled = DerivationCache().requirements(base, 2, "set")
        direct = derive_workflow_requirements(base, 2, kind="set")
        assert list(assembled) == list(direct)
        assert _signature(assembled) == _signature(direct)

    def test_cost_overrides_share_module_entries(self, family):
        base = family[0]
        cache = DerivationCache()
        cache.requirements(base, 2, "set")
        recosted = base.with_attribute_costs(
            {base.attribute_names[0]: 99.0}
        )
        cache.requirements(recosted, 2, "set")
        # The workflow fingerprint changed (costs are part of it) but every
        # module fingerprint did not: zero new module derivations.
        assert cache.rederived_modules == len(base)
        assert cache.reused_modules == len(base)

    def test_store_module_tier_shares_across_processes(self, tmp_path, family):
        base, v1, _ = family
        store = DerivationStore(tmp_path / "store")
        cold = DerivationCache(store=store)
        cold_lists = cold.requirements(base, 2, "set")
        assert store.writes["module_requirement"] == len(base)

        # A different process (fresh cache, same store) analyzing the edited
        # variant: only the edited module is derived, the rest stream in
        # from the shared modules/ tier.
        warm = DerivationCache(store=store)
        warm_lists = warm.requirements(v1, 2, "set")
        assert warm.rederived_modules == 1
        assert warm.reused_modules == len(base) - 1
        shared = [
            m.name
            for m in v1.modules
            if module_fingerprint(m) == module_fingerprint(base.module(m.name))
        ]
        for name in shared:
            assert _signature({name: warm_lists[name]}) == _signature(
                {name: cold_lists[name]}
            )

    def test_corrupt_module_entry_degrades_to_rederivation(self, tmp_path, family):
        base = family[0]
        store = DerivationStore(tmp_path / "store")
        DerivationCache(store=store).requirements(base, 2, "set")
        module = base.modules[0]
        fingerprint = module_fingerprint(module)
        req_path = store._module_dir(fingerprint) / "req-g2-set-kernel.json"
        req_path.write_text("{not json")
        # A structurally-valid JSON document with an unknown inner kind must
        # also degrade to a miss (SchemaError), not crash the solve.
        other = module_fingerprint(base.modules[1])
        bad_kind = store._module_dir(other) / "req-g2-set-kernel.json"
        bad_kind.write_text(
            json.dumps(
                {
                    "gamma": 2,
                    "kind": "set",
                    "backend": "kernel",
                    "requirement": {"kind": "sets", "module": "x", "options": []},
                }
            )
        )
        pack_path = store._module_dir(fingerprint) / "pack.json"
        pack_path.write_text(json.dumps({"pack": {"layout": "x", "codes": []}}))
        # Kill the workflow-level fast path so assembly actually runs.
        fresh = DerivationCache(store=store)
        lists = {
            m.name: fresh.module_requirement(m, 2, "set")
            for m in base.private_modules
        }
        assert _signature(lists) == _signature(
            DerivationCache().requirements(base, 2, "set")
        )

    def test_module_pack_round_trip_with_level_memos(self, family):
        module = family[0].modules[1]
        cache = DerivationCache()
        compiled = cache.compiled_module(module)
        compiled.minimal_safe_hidden_subsets(2)  # populate level memos
        payload = compiled.to_payload()
        assert payload["levels"]
        loaded = CompiledModule.from_payload(module, payload)
        assert loaded._level_cache == compiled._level_cache
        assert loaded.minimal_safe_hidden_subsets(
            2
        ) == compiled.minimal_safe_hidden_subsets(2)
        assert loaded.safe_cardinality_pairs(2) == compiled.safe_cardinality_pairs(2)

    def test_bad_level_memo_is_rejected(self, family):
        module = family[0].modules[0]
        compiled = DerivationCache().compiled_module(module)
        payload = compiled.to_payload()
        payload["levels"] = [[1 << 200, 4]]
        with pytest.raises(ValueError):
            CompiledModule.from_payload(module, payload)


class TestPlannerEvolve:
    def test_replace_matches_cold_solve(self, family):
        base, v1, v2 = family
        planner = Planner(base, 2, kind="set")
        planner.solve(solver="exact")
        for variant in (v1, v2):
            edited = {
                m.name: m
                for m in variant.modules
                if module_fingerprint(m)
                != module_fingerprint(planner.workflow.module(m.name))
            }
            before = planner.cache.stats()
            planner = planner.evolve(replace=edited)
            evolved = planner.solve(solver="exact")
            delta = planner.cache.stats().delta(before)
            assert delta.rederived_modules == len(edited) == 1
            assert delta.reused_modules == len(base) - 1
            cold = Planner(variant, 2, kind="set").solve(solver="exact")
            assert evolved.cost == cold.cost
            assert evolved.hidden_attributes == cold.hidden_attributes

    def test_gamma_change_keeps_workflow_identity(self, family):
        base = family[0]
        planner = Planner(base, 2, kind="cardinality")
        planner.solve(solver="auto")
        stricter = planner.evolve(gamma=4)
        # A pure Γ evolution keeps the same workflow object so id-keyed
        # workflow-level entries (relation, packs, out-sets) stay warm.
        assert stricter.gamma == 4 and stricter.workflow is planner.workflow
        result = stricter.solve(solver="auto")
        cold = Planner(base, 4, kind="cardinality").solve(solver="auto")
        assert result.cost == cold.cost

    def test_add_and_remove_modules(self, family):
        base = family[0]
        x, y = boolean_attributes(["evx", "evy"])
        extra = Module("extra", [x], [y], lambda v: {"evy": 1 - v["evx"]})
        planner = Planner(base, 2, kind="set")
        grown = planner.evolve(add=[extra])
        assert "extra" in grown.workflow.module_names
        shrunk = grown.evolve(remove=["extra"])
        assert "extra" not in shrunk.workflow.module_names
        assert shrunk.workflow.module_names == base.module_names
        # The shrunk planner's solve reuses every module entry.
        planner.solve(solver="greedy")
        before = shrunk.cache.stats()
        shrunk.solve(solver="greedy")
        delta = shrunk.cache.stats().delta(before)
        assert delta.rederived_modules == 0

    def test_unknown_or_conflicting_edits_raise(self, family):
        planner = Planner(family[0], 2, kind="set")
        with pytest.raises(WorkflowError, match="unknown"):
            planner.evolve(remove=["nope"])
        with pytest.raises(WorkflowError, match="unknown"):
            planner.evolve(replace={"nope": family[0].modules[0]})
        name = family[0].module_names[0]
        with pytest.raises(WorkflowError, match="removed and replaced"):
            planner.evolve(
                remove=[name], replace={name: family[0].module(name)}
            )
        with pytest.raises(WorkflowError, match="no modules left"):
            planner.evolve(remove=list(family[0].module_names))

    def test_costs_evolve_without_module_rederivation(self, family):
        base = family[0]
        planner = Planner(base, 2, kind="set")
        planner.solve(solver="greedy")
        before = planner.cache.stats()
        cheap = planner.evolve(costs={base.attribute_names[0]: 0.001})
        cheap.solve(solver="greedy")
        delta = cheap.cache.stats().delta(before)
        assert delta.rederived_modules == 0
        assert delta.reused_modules == len(base)


def _mixed_workflow() -> Workflow:
    """Two private modules around a public one (Section 5 setting)."""
    a0, a1, b0, b1, c0, d0 = boolean_attributes(
        ["a0", "a1", "b0", "b1", "c0", "d0"]
    )
    first = Module(
        "priv_head", [a0, a1], [b0, b1],
        lambda v: {"b0": v["a0"] ^ v["a1"], "b1": v["a0"] & v["a1"]},
    )
    public = Module(
        "pub_mid", [b0, b1], [c0],
        lambda v: {"c0": v["b0"] | v["b1"]},
        private=False,
        privatization_cost=2.0,
    )
    last = Module(
        "priv_tail", [c0], [d0], lambda v: {"d0": 1 - v["c0"]},
    )
    return Workflow([first, public, last], name="mixed")


class TestGeneralWorkflowStorePath:
    """Satellite: public-module workflows through Planner + store."""

    def test_privatization_closure_round_trips_warm_vs_cold(self, tmp_path):
        directory = str(tmp_path / "store")
        cold = Planner(_mixed_workflow(), 2, kind="set", store=directory)
        cold_result = cold.solve(solver="auto")
        assert cold.cache.stats().rederived_modules == 2  # private modules only

        warm = Planner(_mixed_workflow(), 2, kind="set", store=directory)
        warm_result = warm.solve(solver="auto")
        assert warm.cache.stats().rederived_modules == 0
        assert warm.cache.stats().derivation_misses == 0

        # Identical solutions — including the privatized public modules,
        # which must equal the privatization closure of the hidden set.
        assert warm_result.cost == cold_result.cost
        assert warm_result.hidden_attributes == cold_result.hidden_attributes
        assert warm_result.privatized_modules == cold_result.privatized_modules
        workflow = warm.workflow
        closure = privatization_closure(workflow, warm_result.hidden_attributes)
        touched = {
            m.name
            for m in workflow.public_modules
            if set(m.attribute_names) & set(warm_result.hidden_attributes)
        }
        assert closure == touched
        assert closure <= warm_result.privatized_modules

    def test_warm_general_solve_verifies_identically(self, tmp_path):
        directory = str(tmp_path / "store")
        cold = Planner(_mixed_workflow(), 2, kind="set", store=directory)
        cold_result = cold.solve(solver="auto")

        warm = Planner(_mixed_workflow(), 2, kind="set", store=directory)
        warm_result = warm.solve(solver="auto")
        # Lists and packs alike come from the store's module tier.
        assert warm.cache.stats().store_misses == 0
        assert warm_result.certificate.ok == cold_result.certificate.ok
        assert (
            warm_result.certificate.module_levels
            == cold_result.certificate.module_levels
        )


class TestFamilySweepChunking:
    def _spec(self, workflows) -> SweepSpec:
        return SweepSpec(
            instances=tuple(
                SweepInstance(w.name, "workflow", workflow_to_dict(w))
                for w in workflows
            ),
            gammas=(2,),
            kinds=("set",),
            solvers=("greedy",),
            seeds=(0,),
        )

    def test_family_lands_in_one_chunk_unrelated_do_not(self, family):
        unrelated = workflow_family(n_variants=0, seed=99, n_modules=3)[0]
        spec = self._spec([*family, unrelated])
        chunks = _chunks_for(spec)
        assert len(chunks) == 2
        assert {len(chunk["instances"]) for chunk in chunks} == {len(family), 1}

    def test_family_sweep_pays_each_distinct_module_once(self, family):
        report = run_sweep(self._spec(family), n_jobs=1)
        assert report.errors == 0
        distinct = len(
            {
                module_fingerprint(m)
                for workflow in family
                for m in workflow.modules
            }
        )
        assert report.stats["rederived_modules"] == distinct
        assert (
            report.stats["reused_modules"]
            == sum(len(w) for w in family) - distinct
        )

    def test_family_sweep_records_match_fresh_solves(self, family):
        report = run_sweep(self._spec(family), n_jobs=1)
        for workflow, record in zip(family, report.records):
            fresh = Planner(workflow, 2, kind="set").solve(solver="greedy")
            assert record["workflow"] == workflow.name
            assert record["cost"] == pytest.approx(fresh.cost)
            assert record["hidden_attributes"] == sorted(fresh.hidden_attributes)

    def test_multi_gamma_single_instance_still_fans_out(self, family):
        # Family grouping must not collapse a one-workflow parameter sweep
        # into a single serial chunk: a family holding more than its share
        # of the cells for 2 workers is split at its (Γ, kind) points, so
        # --jobs keeps parallelizing them.
        spec = SweepSpec(
            instances=(
                SweepInstance(
                    family[0].name, "workflow", workflow_to_dict(family[0])
                ),
            ),
            gammas=(1, 2, 3),
            kinds=("set", "cardinality"),
            solvers=("greedy",),
            seeds=(0,),
        )
        chunks = _chunks_for(spec, n_jobs=2)
        assert len(chunks) == 6

    def test_only_a_family_over_its_share_of_the_cells_is_split(self, family):
        unrelated = workflow_family(n_variants=0, seed=99, n_modules=3)[0]
        spec = SweepSpec(
            instances=tuple(
                SweepInstance(w.name, "workflow", workflow_to_dict(w))
                for w in (*family, unrelated)
            ),
            gammas=(1, 2),
            solvers=("greedy",),
        )
        # The family holds 6 of 8 cells: whole for one worker, split at its
        # two Γ points for two; the unrelated workflow is one chunk either way.
        assert len(_chunks_for(spec, n_jobs=1)) == 2
        chunks = _chunks_for(spec, n_jobs=2)
        assert [len(chunk["cells"]) for chunk in chunks] == [3, 3, 2]
        assert [{c.gamma for c in chunk["cells"]} for chunk in chunks] == [
            {1},
            {2},
            {1, 2},
        ]
