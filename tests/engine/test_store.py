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
from repro.engine.store import FORMAT_VERSION, OutSetKey, ResultKey, _key_digest
from repro.kernel import CompiledWorkflow
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


class TestArtifactRoundTrips:
    def test_pack_round_trip_produces_identical_out_sets(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        cache = DerivationCache()
        compiled = cache.compiled_workflow(workflow)
        store.save_pack(fingerprint, compiled)
        loaded = store.load_pack(fingerprint, workflow)
        visible = frozenset({"a1", "a3", "a5"})
        for module in workflow.module_names:
            assert loaded.module_out_sets(module, visible) == compiled.module_out_sets(
                module, visible
            )

    def test_out_sets_round_trip(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        cache = DerivationCache()
        visible = frozenset({"a1", "a3", "a5"})
        out_sets = cache.module_out_sets(
            workflow, "m1", visible, frozenset(), stop_at=None, backend="kernel"
        )
        key = OutSetKey("m1", visible, frozenset(), None, "kernel")
        store.save_out_sets(fingerprint, workflow, key, "m1", out_sets)
        assert store.load_out_sets(fingerprint, workflow, key) == out_sets

    def test_result_round_trip(self, store):
        key = ResultKey("kernel", 2, "set", "exact", None, False)
        record = {"cost": 3.0, "solver": "exact", "hidden_attributes": ["a2"]}
        store.save_result("ab" * 32, key, record)
        assert store.load_result("ab" * 32, key) == record

    def test_missing_entries_are_misses(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        mfp = module_fingerprint(workflow.private_modules[0])
        assert store.load_module_requirement(mfp, 2, "set", "kernel") is None
        assert store.load_pack(fingerprint, workflow) is None
        assert (
            store.load_result(fingerprint, ResultKey("kernel", 2, "set", "a", 0))
            is None
        )
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 3

    def test_corrupt_entry_degrades_to_miss(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        store.save_pack(fingerprint, DerivationCache().compiled_workflow(workflow))
        path = store._dir(fingerprint) / "pack.json"
        path.write_text("{not json")
        assert store.load_pack(fingerprint, workflow) is None

    def test_corrupt_pack_degrades_to_miss(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        for payload in ('{"layout": "x", "codes": []}', '{"pack": {"layout": "x"}}'):
            path = store._dir(fingerprint) / "pack.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
            assert store.load_pack(fingerprint, workflow) is None

    def test_negative_out_set_index_degrades_to_miss(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        visible = frozenset({"a1", "a3", "a5"})
        out_sets = DerivationCache().module_out_sets(
            workflow, "m1", visible, frozenset(), stop_at=None, backend="kernel"
        )
        key = OutSetKey("m1", visible, frozenset(), None, "kernel")
        store.save_out_sets(fingerprint, workflow, key, "m1", out_sets)
        path = store._dir(fingerprint) / f"outsets-{_key_digest(key)}.json"
        payload = json.loads(path.read_text())
        payload["entries"][0][0][0] = -1  # would silently wrap via domain[-1]
        path.write_text(json.dumps(payload))
        assert store.load_out_sets(fingerprint, workflow, key) is None
        stats = store.stats()
        assert stats["out_sets_hits"] == 0 and stats["out_sets_misses"] == 1

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
        workflow = figure1_workflow()
        other = random_workflow(4, seed=5)
        fingerprint = workflow_fingerprint(workflow)
        store.save_pack(fingerprint, DerivationCache().compiled_workflow(other))
        # Decoding against the wrong schema must fail safe, not misdecode.
        assert store.load_pack(fingerprint, workflow) is None


class TestStoreFormatV2:
    """The binary, memory-mapped store format and its failure modes."""

    @staticmethod
    def _saved_entry(store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        cache = DerivationCache(store=store)
        compiled = cache.compiled_workflow(workflow)  # saves the pack
        cache.requirements(workflow, 2, "set")  # saves the module tier
        return workflow, fingerprint, compiled

    def test_v2_writes_binary_sidecars_and_stamped_docs(self, store):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        doc = json.loads((entry / "pack.json").read_text())
        assert doc["format"] == FORMAT_VERSION
        descriptor = doc["pack"]["codes"]
        assert isinstance(descriptor, dict)
        sidecar = entry / descriptor["file"]
        assert sidecar.is_file() and sidecar.stat().st_size > 0
        module = workflow.private_modules[0]
        module_entry = store._module_dir(module_fingerprint(module))
        module_doc = json.loads((module_entry / "pack.json").read_text())
        assert module_doc["format"] == FORMAT_VERSION
        assert (module_entry / module_doc["pack"]["codes"]["file"]).is_file()

    def test_truncated_sidecar_degrades_to_miss(self, store):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        sidecar = next(entry.glob("pack.codes.*"))
        sidecar.write_bytes(sidecar.read_bytes()[:-3])
        assert store.load_pack(fingerprint, workflow) is None

    def test_garbage_sidecar_degrades_to_miss(self, store):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        next(entry.glob("pack.codes.*")).write_bytes(b"\x00garbage\xff" * 7)
        assert store.load_pack(fingerprint, workflow) is None

    def test_missing_sidecar_degrades_to_miss(self, store):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        next(entry.glob("pack.codes.*")).unlink()
        assert store.load_pack(fingerprint, workflow) is None

    def test_sidecar_path_traversal_is_rejected(self, store, tmp_path):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        outside = tmp_path / "outside.npy"
        outside.write_bytes(next(entry.glob("pack.codes.*")).read_bytes())
        doc = json.loads((entry / "pack.json").read_text())
        doc["pack"]["codes"]["file"] = os.path.relpath(outside, entry)
        (entry / "pack.json").write_text(json.dumps(doc))
        assert store.load_pack(fingerprint, workflow) is None

    def test_v2_document_without_base_dir_raises_for_v1_readers(self, store):
        """Code expecting inline codes fails loudly, not with garbage."""
        workflow, fingerprint, _ = self._saved_entry(store)
        doc = json.loads((store._dir(fingerprint) / "pack.json").read_text())
        with pytest.raises(ValueError):
            CompiledWorkflow.from_payload(workflow, doc)

    def test_future_format_degrades_to_miss(self, store):
        workflow, fingerprint, _ = self._saved_entry(store)
        entry = store._dir(fingerprint)
        doc = json.loads((entry / "pack.json").read_text())
        doc["format"] = FORMAT_VERSION + 1
        (entry / "pack.json").write_text(json.dumps(doc))
        assert store.load_pack(fingerprint, workflow) is None

    def test_loaded_pack_reports_mapped_bytes(self, store):
        workflow, fingerprint, compiled = self._saved_entry(store)
        loaded = store.load_pack(fingerprint, workflow)
        assert loaded is not None
        mapped = getattr(loaded.packed, "mapped_bytes", 0)
        # mmap may legitimately be unavailable (exotic filesystems); the
        # pack must still round-trip either way.
        assert mapped >= 0
        visible = frozenset({"a1", "a3", "a5"})
        assert loaded.module_out_sets("m1", visible) == compiled.module_out_sets(
            "m1", visible
        )


class TestDiskStatsSurface:
    def test_disk_stats_reports_tiers_and_format_versions(self, store):
        workflow = figure1_workflow()
        cache = DerivationCache(store=store)
        cache.requirements(workflow, 2, "set")  # fills both tiers
        cache.compiled_workflow(workflow)
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


class TestPackIsTheStoredRelation:
    """The workflow pack is the one persisted copy of the provenance relation."""

    @staticmethod
    def _verified_store(tmp_path) -> DerivationStore:
        directory = tmp_path / "store"
        planner = Planner(figure1_workflow(), 2, store=str(directory))
        planner.solve("greedy", verify=True)
        return DerivationStore(directory)

    def test_verify_solve_stores_the_pack_and_no_relation(self, tmp_path):
        store = self._verified_store(tmp_path)
        entry = store._dir(workflow_fingerprint(figure1_workflow()))
        assert (entry / "pack.json").is_file()
        assert len(list(entry.glob("pack.codes.*"))) == 1
        assert not list(entry.glob("relation.*"))
        assert "relation" not in store.disk_stats()["by_kind"]

    def test_warm_compile_is_one_store_hit_and_never_computes_the_relation(
        self, tmp_path, monkeypatch
    ):
        store = self._verified_store(tmp_path)
        workflow = figure1_workflow()

        def refuse(self):
            raise AssertionError("a warm pack load computed the relation")

        monkeypatch.setattr(Workflow, "provenance_relation", refuse)
        cache = DerivationCache(store=store)
        assert len(cache.compiled_workflow(workflow).packed) > 0
        stats = cache.stats()
        assert stats.store_hits == 1 and stats.store_misses == 0
        assert stats.compile_hits == 1 and stats.compile_misses == 0

    def test_unstamped_pack_documents_are_misses(self, store):
        """A ``to_payload()`` document without a ``"format"`` stamp — the
        all-JSON shape an earlier format wrote — is never served; the
        workflow pack is recompiled and rewritten in the current format."""
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        cache = DerivationCache()
        pack_path = store._dir(fingerprint) / "pack.json"
        pack_path.parent.mkdir(parents=True)
        pack_path.write_text(
            json.dumps(cache.compiled_workflow(workflow).to_payload())
        )
        module = workflow.private_modules[0]
        mfp = module_fingerprint(module)
        module_path = store._module_dir(mfp) / "pack.json"
        module_path.parent.mkdir(parents=True)
        module_path.write_text(json.dumps(cache.compiled_module(module).to_payload()))

        assert store.load_module_pack(mfp, module) is None
        warm = DerivationCache(store=store)
        warm.compiled_workflow(workflow)
        assert warm.compile_hits == 0 and warm.compile_misses == 1
        stats = store.stats()
        assert stats["pack_misses"] == 1 and stats["module_pack_misses"] == 1
        doc = json.loads(pack_path.read_text())
        assert doc["format"] == FORMAT_VERSION
        assert (pack_path.parent / doc["pack"]["codes"]["file"]).is_file()


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

    def test_warm_store_serves_relation_pack_and_out_sets(self, store):
        workflow = figure1_workflow()
        cold = DerivationCache(store=store)
        visible = frozenset({"a1", "a3", "a5"})
        packed = cold.compiled_workflow(workflow).packed
        expected = cold.module_out_sets(
            workflow, "m1", visible, frozenset(), stop_at=None, backend="kernel"
        )

        warm = DerivationCache(store=store)
        rebuilt = figure1_workflow()
        # The stored pack is the relation: the same rows, in the same order.
        assert warm.compiled_workflow(rebuilt).packed.codes == packed.codes
        got = warm.module_out_sets(
            rebuilt, "m1", visible, frozenset(), stop_at=None, backend="kernel"
        )
        assert got == expected
        assert warm.compile_misses == 0  # served from the store, not compiled
        assert warm.compile_hits == 1
        assert warm.out_set_misses == 0
        assert warm.store_hits == 2

    @pytest.mark.skipif(not HAVE_SCIPY, reason="exact solver needs scipy")
    def test_planner_store_path_round_trip(self, tmp_path):
        directory = str(tmp_path / "store")
        first = Planner(figure1_workflow(), 2, kind="set", store=directory)
        result = first.solve(solver="exact", verify=True)

        second = Planner(figure1_workflow(), 2, kind="set", store=directory)
        again = second.solve(solver="exact", verify=True)
        assert again.cost == result.cost
        assert again.certificate.ok == result.certificate.ok
        assert again.cache_stats.derivation_misses == 0
        assert again.cache_stats.out_set_misses == 0
        assert again.cache_stats.store_hits > 0

    def test_memory_front_is_bounded(self):
        cache = DerivationCache(max_entries=2)
        for seed in range(4):
            cache.compiled_workflow(random_workflow(3, seed=seed))
        assert len(cache._compiled) <= 2
        # Pins survive eviction so id() reuse can never alias an entry.
        assert len(cache._workflows) == 4

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
    """DerivationCache.clear() drops everything, including pinned packs."""

    def test_clear_drops_pinned_compiled_and_resets_counters(self):
        cache = DerivationCache()
        workflow = figure1_workflow()
        cache.compiled_workflow(workflow)
        cache.compiled_workflow(workflow)
        cache.requirements(workflow, 2, "set")
        assert cache._compiled and cache.compile_hits == 1

        cache.clear()
        assert not cache._compiled
        assert not cache._workflows and not cache._fingerprints
        assert not cache._requirements
        assert not cache._out_sets
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0
        assert stats.compile_hits == stats.compile_misses == 0
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
        cache.compiled_workflow(workflow)
        cache.requirements(workflow, 2, "set")
        after = compile_cache_info()
        assert (after["workflows"], after["modules"]) == (
            before["workflows"],
            before["modules"],
        )
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
            "compile_hits",
            "compile_misses",
            "store_hits",
            "store_misses",
            "mmap_packs",
            "mmap_bytes",
        ):
            assert key in payload

    def test_warm_v2_pack_load_counts_mapped_bytes(self, store):
        workflow = figure1_workflow()
        DerivationCache(store=store).compiled_workflow(workflow)
        warm = DerivationCache(store=store)
        warm.compiled_workflow(figure1_workflow())
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
        warm_key = ResultKey("kernel", 2, "set", "exact", None, False)
        cold_key = ResultKey("kernel", 3, "set", "exact", None, False)
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
            "cd" * 32, ResultKey("kernel", 2, "set", "exact", None, False),
            {"cost": 1.0},
        )
        entry_dir = store._dir("cd" * 32)
        temp = entry_dir / f"result.json.tmp-{os.getpid()}"
        temp.write_text("{in flight}")
        summary = store.gc(max_bytes=0)
        assert summary["kept_bytes"] == 0  # every *artifact* went
        assert temp.exists()  # the in-flight temp did not
        assert store.load_result(
            "cd" * 32, ResultKey("kernel", 2, "set", "exact", None, False)
        ) is None

    def test_gc_sweeps_out_emptied_entry_directories(self, store):
        fingerprint = "ef" * 32
        store.save_result(
            fingerprint, ResultKey("kernel", 2, "set", "exact", None, False),
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
        fingerprint = workflow_fingerprint(workflow)
        DerivationCache(store=store).compiled_workflow(workflow)
        entry = store._dir(fingerprint)
        assert list(entry.glob("*.codes.*"))  # v2 wrote sidecars
        summary = store.gc(max_bytes=0)
        assert summary["kept_bytes"] == 0
        assert not entry.exists()
        assert not list(store.root.rglob("*.codes.*"))

    def test_gc_rejects_negative_budget(self, store):
        with pytest.raises(ValueError):
            store.gc(max_bytes=-1)


class TestPopularityMeta:
    """The meta tier's popularity record and warm-up queries."""

    def test_bump_and_read_survive_reopen(self, store, tmp_path):
        fingerprint = "ab" * 32
        assert store.popularity(fingerprint) == 0
        assert store.bump_popularity(fingerprint) == 1
        assert store.bump_popularity(fingerprint, 4) == 5
        reopened = DerivationStore(tmp_path / "store")
        assert reopened.popularity(fingerprint) == 5

    @staticmethod
    def _bump_with_payload(store, workflow, by: int = 1) -> str:
        """Record ``by`` requests and the workflow's payload; its fingerprint."""
        fingerprint = workflow_fingerprint(workflow)
        store.bump_popularity(fingerprint, by, workflow_to_dict(workflow))
        return fingerprint

    def test_popularity_survives_artifact_writes(self, store):
        """Artifact writes never touch the popularity record."""
        workflow = figure1_workflow()
        fingerprint = self._bump_with_payload(store, workflow, 2)
        cache = DerivationCache(store=store)
        cache.compiled_workflow(workflow)
        cache.requirements(workflow, 2, "set")
        assert store.popularity(fingerprint) == 2
        popular = store.popular_workflows(1)
        assert popular[0][0] == fingerprint and popular[0][1] == 2

    def test_bump_merges_payload_points_and_counts(self, store):
        workflow = figure1_workflow()
        fingerprint = workflow_fingerprint(workflow)
        first = workflow_to_dict(workflow)
        store.bump_popularity(fingerprint, 2, first, [(2, "set", "kernel")])
        store.bump_popularity(
            fingerprint,
            3,
            workflow_to_dict(random_workflow(3, seed=7)),
            [(2, "set", "kernel"), (1, "cardinality", "reference")],
        )
        store.bump_popularity(fingerprint)  # a count alone keeps the rest
        [(ranked, count, payload, points)] = store.popular_workflows(5)
        assert (ranked, count) == (fingerprint, 6)
        assert payload == first  # the first payload stays
        assert points == [(1, "cardinality", "reference"), (2, "set", "kernel")]

    def test_popular_workflows_skip_malformed_points(self, store):
        fingerprint = workflow_fingerprint(figure1_workflow())
        store.bump_popularity(
            fingerprint, 1, workflow_to_dict(figure1_workflow()), [(2, "set", "kernel")]
        )
        meta_path = store._dir(fingerprint) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["points"] += [
            ["2", "set", "kernel"],
            [2, "set"],
            "x",
            [True, "set", "kernel"],
        ]
        meta_path.write_text(json.dumps(meta))
        assert store.popular_workflows(1)[0][3] == [(2, "set", "kernel")]
        meta["points"] = "x"
        meta_path.write_text(json.dumps(meta))
        assert store.popular_workflows(1)[0][3] == []

    def test_popular_workflows_ranks_and_skips_unwarmables(self, store):
        ranked = self._bump_with_payload(store, figure1_workflow(), 3)
        other_wf = random_workflow(3, seed=7)
        other = self._bump_with_payload(store, other_wf, 9)
        # Popular but payload-less: bumped without one — unwarmable.
        store.bump_popularity("99" * 32, 50)
        ranking = store.popular_workflows(10)
        assert [(fp, count) for fp, count, _, _ in ranking] == [
            (other, 9), (ranked, 3)
        ]
        assert ranking[0][2]["name"] == other_wf.name
        assert store.popular_workflows(1) == ranking[:1]

    @pytest.mark.parametrize("count", ["lots", [1], True])
    def test_non_integer_popularity_reads_zero_and_is_rewritten(self, store, count):
        fingerprint = self._bump_with_payload(store, figure1_workflow())
        meta_path = store._dir(fingerprint) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["popularity"] = count
        meta_path.write_text(json.dumps(meta))
        assert store.popularity(fingerprint) == 0
        assert store.popular_workflows(5) == []  # unrequested: skipped
        assert store.bump_popularity(fingerprint) == 1
        assert [(fp, n) for fp, n, _, _ in store.popular_workflows(5)] == [
            (fingerprint, 1)
        ]


class TestOneStoredCopyOfEachList:
    """The module tier is the only stored copy of each requirement list, and
    only the service's popularity flush writes ``meta.json``."""

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
        planner.solve("greedy", verify=True)
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
        served = fresh.requirements(figure1_workflow(), 2, "set", backend="kernel")
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
