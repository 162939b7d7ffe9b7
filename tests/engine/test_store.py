"""Tests for the persistent derivation store and the two-tier cache."""

from __future__ import annotations

import gc
import json
import os
import weakref

import pytest

from repro.core import Workflow
from repro.engine import (
    DerivationCache,
    DerivationStore,
    Planner,
    SweepInstance,
    SweepSpec,
    run_sweep,
)
from repro.engine.store import FORMAT_VERSION, ResultKey, _key_digest
from repro.kernel import CompiledModule
from repro.optim.lp import HAVE_SCIPY
from repro.workloads import (
    figure1_workflow,
    module_fingerprint,
    random_workflow,
    workflow_fingerprint,
    workflow_to_dict,
)
from repro.workloads.serialization import requirement_to_dict


@pytest.fixture
def store(tmp_path) -> DerivationStore:
    return DerivationStore(tmp_path / "store")


def _module_entry(workflow):
    """``(module, fingerprint)`` for the workflow's first private module."""
    module = workflow.private_modules[0]
    return module, module_fingerprint(module)


#: Visible sets the pack tests compare levels on (figure 1's m1 is a1, a2
#: -> a3, a4, a5; names outside the module are ignored).
VISIBLE_SETS = (
    frozenset(),
    frozenset({"a1", "a3", "a5"}),
    frozenset({"a2", "a4"}),
    frozenset({"a1", "a2", "a3", "a4", "a5"}),
)


class TestArtifactRoundTrips:
    def test_result_round_trip(self, store):
        key = ResultKey(2, "set", "exact", None)
        record = {"cost": 3.0, "solver": "exact", "hidden_attributes": ["a2"]}
        store.save_result("ab" * 32, key, record)
        assert store.load_result("ab" * 32, key) == record

    def test_missing_entries_are_misses(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        module, mfp = _module_entry(workflow)
        assert store.load_module_requirement(mfp, 2, "set") is None
        assert store.load_module_pack(mfp, module) is None
        assert store.load_result(fingerprint, ResultKey(2, "set", "a", 0)) is None
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 3

    def test_corrupt_entry_degrades_to_miss(self, store):
        module, mfp = _module_entry(figure1_workflow())
        store.save_module_pack(mfp, CompiledModule(module))
        path = store._module_dir(mfp) / "pack.json"
        path.write_text("{not json")
        assert store.load_module_pack(mfp, module) is None

    def test_corrupt_pack_degrades_to_miss(self, store):
        module, mfp = _module_entry(figure1_workflow())
        for payload in ('{"layout": "x", "codes": []}', '{"pack": {"layout": "x"}}'):
            path = store._module_dir(mfp) / "pack.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
            assert store.load_module_pack(mfp, module) is None

    def test_requirements_round_trip_preserves_order(self, store):
        workflow = figure1_workflow()
        derived = DerivationCache().requirements(workflow, 2, "set")
        DerivationCache(store=store).requirements(workflow, 2, "set")
        warm = DerivationCache(store=store)
        loaded = warm.requirements(figure1_workflow(), 2, "set")
        assert warm.rederived_modules == 0
        # Same mapping order as fresh derivation: constraint ordering (and
        # thus LP/IP tie-breaking among equal optima) must not change.
        assert list(loaded) == list(derived)
        for name in derived:
            assert list(loaded[name]) == list(derived[name])

    def test_structurally_wrong_entry_degrades_to_miss(self, store):
        module, mfp = _module_entry(figure1_workflow())
        other = random_workflow(4, seed=5).modules[0]
        store.save_module_pack(mfp, CompiledModule(other))
        # Decoding against the wrong schema must fail safe, not misdecode.
        assert store.load_module_pack(mfp, module) is None


class TestStoreFormatV2:
    """The binary, memory-mapped store format and its failure modes."""

    @staticmethod
    def _saved_entry(store):
        workflow = figure1_workflow()
        cache = DerivationCache(store=store)
        cache.requirements(workflow, 2, "set")  # saves the module tier
        module, mfp = _module_entry(workflow)
        return module, mfp, cache.compiled_module(module)

    def test_v2_writes_binary_sidecars_and_stamped_docs(self, store):
        module, mfp, _ = self._saved_entry(store)
        entry = store._module_dir(mfp)
        doc = json.loads((entry / "pack.json").read_text())
        assert doc["format"] == FORMAT_VERSION
        descriptor = doc["pack"]["codes"]
        assert isinstance(descriptor, dict)
        sidecar = entry / descriptor["file"]
        assert sidecar.is_file() and sidecar.stat().st_size > 0
        # No workflow-level pack: the module tier holds every pack.
        assert not store._dir(workflow_fingerprint(figure1_workflow())).exists()

    def test_truncated_sidecar_degrades_to_miss(self, store):
        module, mfp, _ = self._saved_entry(store)
        sidecar = next(store._module_dir(mfp).glob("pack.codes.*"))
        sidecar.write_bytes(sidecar.read_bytes()[:-3])
        assert store.load_module_pack(mfp, module) is None

    def test_garbage_sidecar_degrades_to_miss(self, store):
        module, mfp, _ = self._saved_entry(store)
        sidecar = next(store._module_dir(mfp).glob("pack.codes.*"))
        sidecar.write_bytes(b"\x00garbage\xff" * 7)
        assert store.load_module_pack(mfp, module) is None

    def test_missing_sidecar_degrades_to_miss(self, store):
        module, mfp, _ = self._saved_entry(store)
        next(store._module_dir(mfp).glob("pack.codes.*")).unlink()
        assert store.load_module_pack(mfp, module) is None

    def test_sidecar_path_traversal_is_rejected(self, store, tmp_path):
        module, mfp, _ = self._saved_entry(store)
        entry = store._module_dir(mfp)
        outside = tmp_path / "outside.npy"
        outside.write_bytes(next(entry.glob("pack.codes.*")).read_bytes())
        doc = json.loads((entry / "pack.json").read_text())
        doc["pack"]["codes"]["file"] = os.path.relpath(outside, entry)
        (entry / "pack.json").write_text(json.dumps(doc))
        assert store.load_module_pack(mfp, module) is None

    def test_v2_document_without_base_dir_raises_for_v1_readers(self, store):
        """Code expecting inline codes fails loudly, not with garbage."""
        module, mfp, _ = self._saved_entry(store)
        doc = json.loads((store._module_dir(mfp) / "pack.json").read_text())
        with pytest.raises(ValueError):
            CompiledModule.from_payload(module, doc)

    def test_future_format_degrades_to_miss(self, store):
        module, mfp, _ = self._saved_entry(store)
        entry = store._module_dir(mfp)
        doc = json.loads((entry / "pack.json").read_text())
        doc["format"] = FORMAT_VERSION + 1
        (entry / "pack.json").write_text(json.dumps(doc))
        assert store.load_module_pack(mfp, module) is None

    def test_loaded_pack_reports_mapped_bytes(self, store):
        module, mfp, compiled = self._saved_entry(store)
        loaded = store.load_module_pack(mfp, module)
        assert loaded is not None
        mapped = getattr(loaded.packed, "mapped_bytes", 0)
        # mmap may legitimately be unavailable (exotic filesystems); the
        # pack must still round-trip either way.
        assert mapped >= 0
        assert loaded.packed.codes == compiled.packed.codes
        fresh = CompiledModule(module)
        for visible in VISIBLE_SETS:
            assert loaded.privacy_level(visible) == fresh.privacy_level(visible)


class TestDiskStatsSurface:
    def test_disk_stats_reports_tiers_and_format_versions(self, store):
        workflow = figure1_workflow()
        cache = DerivationCache(store=store)
        cache.requirements(workflow, 2, "set")  # fills the module tier
        store.save_result(  # and a workflow entry
            workflow_fingerprint(workflow),
            ResultKey(2, "set", "exact", None),
            {"cost": 1.0},
        )
        stats = store.disk_stats()
        assert stats["format_version"] == FORMAT_VERSION
        tiers = stats["tiers"]
        assert tiers["workflow"]["entries"] >= 1
        assert tiers["modules"]["entries"] >= 1
        for tier in tiers.values():
            assert tier["files"] > 0 and tier["bytes"] > 0
        assert tiers["workflow"]["bytes"] + tiers["modules"]["bytes"] == (
            stats["bytes"]
        )

    def test_workflow_level_packs_and_out_sets_count_as_other(self, store):
        """Files the workflow-pack and out-set tiers of earlier commits
        wrote are nobody's artifact kind: ``"other"``, evicted by gc."""
        entry = store._dir(workflow_fingerprint(figure1_workflow()))
        entry.mkdir(parents=True)
        for name in ("pack.json", "pack.codes.npy", "outsets-0123456789abcdef.json"):
            (entry / name).write_text("{}")
        stats = store.disk_stats()
        assert stats["by_kind"]["other"] == 3
        assert stats["by_kind"]["pack"] == 0
        assert "out_sets" not in stats["by_kind"]
        assert store.gc(max_bytes=0)["deleted_files"] == 3


class TestPackIsTheStoredRelation:
    """Module packs are the one persisted copy of each module's relation;
    no workflow relation, pack or out-set is stored or read."""

    @staticmethod
    def _verified_store(tmp_path) -> DerivationStore:
        directory = tmp_path / "store"
        planner = Planner(figure1_workflow(), 2, store=str(directory))
        assert planner.solve("greedy").certificate.ok
        return DerivationStore(directory)

    def test_verify_solve_stores_the_pack_and_no_relation(self, tmp_path):
        store = self._verified_store(tmp_path)
        workflow = figure1_workflow()
        for module in workflow.private_modules:
            entry = store._module_dir(module_fingerprint(module))
            assert (entry / "pack.json").is_file()
            assert len(list(entry.glob("pack.codes.*"))) == 1
        # A Planner writes no workflow-level file at all.
        assert not store._dir(workflow_fingerprint(workflow)).exists()
        assert not list(store.root.rglob("relation.*"))
        assert not list(store.root.rglob("outsets-*"))
        assert "relation" not in store.disk_stats()["by_kind"]

    def test_warm_compile_is_one_store_hit_and_never_computes_the_relation(
        self, tmp_path, monkeypatch
    ):
        store = self._verified_store(tmp_path)
        workflow = figure1_workflow()

        def refuse(self):
            raise AssertionError("a warm verify computed the workflow relation")

        monkeypatch.setattr(Workflow, "provenance_relation", refuse)
        planner = Planner(workflow, 2, cache=DerivationCache(store=store))
        assert planner.solve("greedy").certificate.ok
        stats = planner.cache.stats()
        # One list and one pack per private module, each one store hit.
        assert stats.store_hits == 2 * len(workflow.private_modules)
        assert stats.store_misses == 0
        assert stats.derivation_misses == 0

    def test_unstamped_pack_documents_are_misses(self, store):
        """A ``to_payload()`` document without a ``"format"`` stamp — the
        all-JSON shape an earlier format wrote — is never served; the
        module pack is recompiled and rewritten in the current format."""
        workflow = figure1_workflow()
        module, mfp = _module_entry(workflow)
        module_path = store._module_dir(mfp) / "pack.json"
        module_path.parent.mkdir(parents=True)
        module_path.write_text(json.dumps(CompiledModule(module).to_payload()))

        assert store.load_module_pack(mfp, module) is None
        warm = DerivationCache(store=store)
        warm.requirements(workflow, 2, "set")
        # The probe above, then one per private module while deriving.
        assert store.stats()["module_pack_misses"] == 1 + len(
            workflow.private_modules
        )
        doc = json.loads(module_path.read_text())
        assert doc["format"] == FORMAT_VERSION
        assert (module_path.parent / doc["pack"]["codes"]["file"]).is_file()
        assert store.load_module_pack(mfp, module) is not None


class TestTwoTierCache:
    def test_warm_store_skips_derivation_in_fresh_cache(self, store):
        workflow = figure1_workflow()
        cold = DerivationCache(store=store)
        cold.requirements(workflow, 2, "set")
        assert cold.derivation_misses == 1 and cold.store_misses >= 1

        warm = DerivationCache(store=store)
        rebuilt = figure1_workflow()  # a distinct object, same content
        lists = warm.requirements(rebuilt, 2, "set")
        assert warm.derivation_misses == 0
        # One module-tier document per private module, no workflow document.
        assert warm.store_hits == len(workflow.private_modules)
        assert set(lists) == {m.name for m in workflow.private_modules}

    def test_warm_store_serves_module_packs(self, store):
        workflow = figure1_workflow()
        cold = DerivationCache(store=store)
        cold.requirements(workflow, 2, "set")  # compiles and saves each pack
        expected = {
            module.name: cold.compiled_module(module)
            for module in workflow.private_modules
        }

        warm = DerivationCache(store=store)
        rebuilt = figure1_workflow()
        for module in rebuilt.private_modules:
            loaded = warm.compiled_module(module)
            cold_pack = expected[module.name]
            # The stored pack is the module's relation: the same rows, in
            # the same order, and the same levels.
            assert loaded.packed.codes == cold_pack.packed.codes
            for visible in VISIBLE_SETS:
                assert loaded.privacy_level(visible) == cold_pack.privacy_level(visible)
        assert warm.store_hits == len(workflow.private_modules)
        assert warm.store_misses == 0

    @pytest.mark.skipif(not HAVE_SCIPY, reason="exact solver needs scipy")
    def test_planner_store_path_round_trip(self, tmp_path):
        directory = str(tmp_path / "store")
        first = Planner(figure1_workflow(), 2, kind="set", store=directory)
        result = first.solve(solver="exact")

        second = Planner(figure1_workflow(), 2, kind="set", store=directory)
        again = second.solve(solver="exact")
        assert again.cost == result.cost
        assert again.certificate == result.certificate
        assert again.cache_stats.derivation_misses == 0
        assert again.cache_stats.store_misses == 0
        assert again.cache_stats.store_hits > 0

    def test_memory_front_is_bounded(self):
        cache = DerivationCache(max_entries=2)
        workflows = [random_workflow(3, seed=seed) for seed in range(4)]
        for workflow in workflows:
            cache.compiled_module(workflow.modules[0])
        assert len(cache._compiled_modules) <= 2
        # Pins survive eviction so id() reuse can never alias an entry.
        assert len(cache._modules) == 4

    def test_seeded_requirements_are_never_evicted(self):
        # Caller-provided lists may not be re-derivable (generators attach
        # random requirements): the FIFO bound must not touch them.
        from repro.workloads import random_problem

        cache = DerivationCache(max_entries=2)
        problem = random_problem(n_modules=4, kind="set", seed=21)
        cache.seed_requirements(
            problem.workflow, problem.gamma, "set", problem.requirements
        )
        for seed in range(4):  # churn the bounded derived-requirements table
            cache.requirements(random_workflow(3, seed=seed), 2, "set")
        served = cache.requirements(problem.workflow, problem.gamma, "set")
        assert served is problem.requirements


class TestClearRegression:
    """DerivationCache.clear() drops everything, including compiled packs."""

    def test_clear_drops_pinned_compiled_and_resets_counters(self):
        cache = DerivationCache()
        workflow = figure1_workflow()
        cache.requirements(workflow, 2, "set")
        cache.requirements(workflow, 2, "set")
        assert cache._compiled_modules and cache.derivation_hits == 1

        cache.clear()
        assert not cache._compiled_modules and not cache._modules
        assert not cache._workflows and not cache._module_fingerprints
        assert not cache._requirements
        stats = cache.stats()
        assert stats.derivation_hits == stats.derivation_misses == 0
        assert stats.store_hits == stats.store_misses == 0

    def test_clear_keeps_disk_artifacts(self, tmp_path):
        store = DerivationStore(tmp_path / "store")
        cache = DerivationCache(store=store)
        workflow = figure1_workflow()
        cache.requirements(workflow, 2, "set")
        cache.clear()
        assert cache.store is store
        warm = cache.requirements(figure1_workflow(), 2, "set")
        assert cache.derivation_misses == 0
        assert cache.store_hits == len(workflow.private_modules)
        assert warm

    def test_clear_releases_the_workflow_and_its_packs(self):
        """The cache compiles outside the kernel's global compile memo, so
        nothing it built outlives ``clear()``."""
        from repro.kernel import compile_cache_info

        before = compile_cache_info()
        cache = DerivationCache()
        workflow = random_workflow(4, seed=1, max_inputs=1)
        cache.requirements(workflow, 2, "set")
        planner = Planner(workflow, 2, cache=cache)
        assert planner.verify(planner.solve("greedy").solution).ok
        after = compile_cache_info()
        assert (after["workflows"], after["modules"]) == (
            before["workflows"],
            before["modules"],
        )
        del planner
        cache.clear()
        alive = weakref.ref(workflow)
        del workflow
        gc.collect()
        assert alive() is None


class TestCacheStatsSurface:
    def test_stats_dict_includes_store_counters(self):
        cache = DerivationCache()
        payload = cache.stats().as_dict()
        for key in (
            "derivation_hits",
            "derivation_misses",
            "store_hits",
            "store_misses",
            "mmap_packs",
            "mmap_bytes",
        ):
            assert key in payload
        for gone in ("out_set_hits", "out_set_misses", "compile_hits"):
            assert gone not in payload

    def test_warm_v2_pack_load_counts_mapped_bytes(self, store):
        workflow = figure1_workflow()
        DerivationCache(store=store).requirements(workflow, 2, "set")
        warm = DerivationCache(store=store)
        for module in figure1_workflow().private_modules:
            warm.compiled_module(module)
        stats = warm.stats()
        assert stats.mmap_packs >= 1
        assert stats.mmap_bytes > 0
        warm.clear()
        cleared = warm.stats()
        assert cleared.mmap_packs == 0 and cleared.mmap_bytes == 0

    def test_delta_subtracts_fieldwise(self):
        cache = DerivationCache()
        before = cache.stats()
        cache.requirements(figure1_workflow(), 2, "set")
        delta = cache.stats().delta(before)
        assert delta.derivation_misses == 1
        assert delta.derivation_hits == 0


class TestStoreGC:
    """LRU eviction to a byte budget (the maintenance GC task's engine)."""

    @staticmethod
    def _backdate(path, seconds: float) -> None:
        stat = path.stat()
        os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))

    def test_touch_on_read_keeps_warm_artifacts_over_cold_ones(self, store):
        warm_key = ResultKey(2, "set", "exact", None)
        cold_key = ResultKey(3, "set", "exact", None)
        fingerprint = "ab" * 32
        store.save_result(fingerprint, warm_key, {"cost": 3.0})
        store.save_result(fingerprint, cold_key, {"cost": 4.0})
        warm_path, cold_path = (
            store._dir(fingerprint) / f"result-{_key_digest(key)}.json"
            for key in (warm_key, cold_key)
        )
        # Both written an hour ago, cold more recently than warm...
        self._backdate(warm_path, 3600.0)
        self._backdate(cold_path, 1800.0)
        # ... but a read *touches* warm, so LRU now favors it.
        assert store.load_result(fingerprint, warm_key) == {"cost": 3.0}
        budget = warm_path.stat().st_size
        summary = store.gc(max_bytes=budget)
        assert summary["deleted_files"] == 1
        assert summary["kept_bytes"] <= budget
        assert store.load_result(fingerprint, warm_key) == {"cost": 3.0}
        assert store.load_result(fingerprint, cold_key) is None

    def test_gc_never_deletes_inflight_temp_files(self, store):
        store.save_result(
            "cd" * 32, ResultKey(2, "set", "exact", None),
            {"cost": 1.0},
        )
        entry_dir = store._dir("cd" * 32)
        temp = entry_dir / f"result.json.tmp-{os.getpid()}"
        temp.write_text("{in flight}")
        summary = store.gc(max_bytes=0)
        assert summary["kept_bytes"] == 0  # every *artifact* went
        assert temp.exists()  # the in-flight temp did not
        assert store.load_result(
            "cd" * 32, ResultKey(2, "set", "exact", None)
        ) is None

    def test_gc_sweeps_out_emptied_entry_directories(self, store):
        fingerprint = "ef" * 32
        store.save_result(
            fingerprint, ResultKey(2, "set", "exact", None),
            {"cost": 2.0},
        )
        assert store._dir(fingerprint).is_dir()
        store.gc(max_bytes=0)
        assert not store._dir(fingerprint).exists()
        # The emptied two-hex shard directory goes too, not just the entry.
        assert not store._dir(fingerprint).parent.exists()
        assert store.root.is_dir()  # the root itself survives

    def test_gc_evicts_binary_sidecars_with_their_documents(self, store):
        workflow = figure1_workflow()
        DerivationCache(store=store).requirements(workflow, 2, "set")
        entry = store._module_dir(module_fingerprint(workflow.private_modules[0]))
        assert list(entry.glob("*.codes.*"))  # v2 wrote sidecars
        summary = store.gc(max_bytes=0)
        assert summary["kept_bytes"] == 0
        assert not entry.exists()
        assert not list(store.root.rglob("*.codes.*"))

    def test_gc_rejects_negative_budget(self, store):
        with pytest.raises(ValueError):
            store.gc(max_bytes=-1)


class TestOneStoredCopyOfEachList:
    """The module tier is the only stored copy of each requirement list, and
    nothing writes ``meta.json``."""

    @staticmethod
    def _assert_module_tier_only(store) -> None:
        root = store.root
        assert not list(root.rglob("meta.json"))
        outside = [
            path
            for path in root.rglob("req-*.json")
            if path.relative_to(root).parts[0] != "modules"
        ]
        assert outside == []
        assert list((root / "modules").rglob("req-*.json"))
        assert not [key for key in store.stats() if key.startswith("requirements")]

    def test_cold_planner_solve_writes_no_meta_and_no_workflow_lists(
        self, tmp_path
    ):
        planner = Planner(figure1_workflow(), 2, store=str(tmp_path / "store"))
        planner.solve("greedy")
        self._assert_module_tier_only(planner.cache.store)

    def test_cold_sweep_writes_no_meta_and_no_workflow_lists(self, tmp_path):
        spec = SweepSpec(
            instances=(
                SweepInstance(
                    "w", "workflow", workflow_to_dict(random_workflow(4, seed=1))
                ),
            ),
            kinds=("set", "cardinality"),
            solvers=("greedy",),
        )
        report = run_sweep(spec, n_jobs=1, store=tmp_path / "store")
        assert report.errors == 0
        self._assert_module_tier_only(DerivationStore(tmp_path / "store"))

    def test_workflow_level_lists_are_never_read(self, store):
        """A workflow-level document an earlier commit wrote is ignored:
        plant Γ=1 lists under the Γ=2 name and get the Γ=2 derivation."""
        workflow = figure1_workflow()
        gamma1 = DerivationCache().requirements(workflow, 1, "set")
        gamma2 = DerivationCache().requirements(workflow, 2, "set")
        assert [list(lists) for lists in gamma1.values()] != [
            list(lists) for lists in gamma2.values()
        ]
        planted = store._dir(workflow_fingerprint(workflow)) / "req-g2-set-kernel.json"
        planted.parent.mkdir(parents=True)
        planted.write_text(
            json.dumps(
                {
                    "gamma": 2,
                    "kind": "set",
                    "backend": "kernel",
                    "requirements": [requirement_to_dict(r) for r in gamma1.values()],
                }
            )
        )
        fresh = DerivationCache(store=store)
        served = fresh.requirements(figure1_workflow(), 2, "set")
        assert {name: list(lists) for name, lists in served.items()} == {
            name: list(lists) for name, lists in gamma2.items()
        }
        assert fresh.derivation_misses == 1

    def test_a_call_that_derives_no_module_list_counts_a_hit(self, store):
        workflow = figure1_workflow()
        variant = workflow.with_attribute_costs({"a3": 10.0})
        cache = DerivationCache(store=store)
        cache.requirements(workflow, 2, "set")
        cache.requirements(variant, 2, "set")  # every list from the module tier
        stats = cache.stats()
        assert (stats.derivation_misses, stats.derivation_hits) == (1, 1)
        assert (stats.rederived_modules, stats.reused_modules) == (3, 3)

        fresh = DerivationCache(store=store)
        fresh.requirements(figure1_workflow(), 2, "set")
        stats = fresh.stats()
        assert (stats.derivation_hits, stats.derivation_misses) == (1, 0)
        assert stats.rederived_modules == 0
        assert stats.store_hits == 3
