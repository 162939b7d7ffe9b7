"""Tests for the parallel sweep executor."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core import Workflow
from repro.engine import (
    SolveRunner,
    SweepInstance,
    SweepSpec,
    run_sweep,
    scrub_record,
    spec_from_grid,
)
from repro.exceptions import WiringError
from repro.workloads import (
    figure1_workflow,
    module_fingerprint,
    problem_to_dict,
    random_problem,
    random_total_module,
    random_workflow,
    workflow_family,
    workflow_fingerprint,
    workflow_from_dict,
    workflow_to_dict,
)


def _spec(solvers=("set_lp", "greedy"), seeds=(0,), **kwargs) -> SweepSpec:
    instances = tuple(
        SweepInstance(
            f"w{seed}", "workflow", workflow_to_dict(random_workflow(5, seed=seed))
        )
        for seed in (1, 2)
    )
    return SweepSpec(
        instances=instances, gammas=(2,), kinds=("set",), solvers=solvers,
        seeds=seeds, **kwargs
    )


class TestGridExpansion:
    def test_cells_are_deterministic_and_indexed(self):
        spec = _spec()
        cells = spec.cells()
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert cells == spec.cells()
        assert len(cells) == 2 * 1 * 1 * 2 * 1

    def test_problem_instances_ignore_grid_axes(self):
        problem = random_problem(n_modules=5, kind="set", seed=3)
        spec = SweepSpec(
            instances=(SweepInstance("p", "problem", problem_to_dict(problem)),),
            gammas=(2, 3),
            kinds=("set", "cardinality"),
            solvers=("greedy",),
        )
        cells = spec.cells()
        assert len(cells) == 1  # gammas/kinds come baked into the problem
        assert cells[0].gamma is None and cells[0].kind is None

    def test_explicit_solver_seed_pairs(self):
        spec = _spec(solver_seed_pairs=(("exact", None), ("greedy", 7)))
        cells = spec.cells()
        assert [(c.solver, c.seed) for c in cells[:2]] == [
            ("exact", None),
            ("greedy", 7),
        ]

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            SweepInstance("x", "mystery", {})

    def test_duplicate_labels_rejected(self):
        # Cells are routed to instances by label: two instances under one
        # label would both be solved as whichever the worker built first.
        payloads = [workflow_to_dict(random_workflow(5, seed=s)) for s in (1, 2)]
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(
                instances=tuple(SweepInstance("x", "workflow", p) for p in payloads)
            )


class TestSerialParallelEquivalence:
    def test_records_identical_modulo_timings(self):
        spec = _spec()
        serial = run_sweep(spec, n_jobs=1)
        parallel = run_sweep(spec, n_jobs=2)
        assert [scrub_record(r) for r in serial.records] == [
            scrub_record(r) for r in parallel.records
        ]
        assert serial.errors == parallel.errors == 0

    def test_records_sorted_by_index(self):
        report = run_sweep(_spec(), n_jobs=2)
        assert [r["index"] for r in report.records] == list(range(len(report.records)))

    def test_parallel_cold_pass_derives_what_a_serial_one_does(self):
        """Each family goes to one worker, which levels each module once for
        every (Γ, kind) point, as the serial pass does."""
        instances = []
        for index in range(3):
            base = Workflow(
                [
                    random_total_module(
                        10 * index + slot, 5, 3, f"m{slot}", f"f{index}s{slot}_"
                    )
                    for slot in range(3)
                ],
                name=f"family{index}",
            )
            instances += [
                SweepInstance(w.name, "workflow", workflow_to_dict(w))
                for w in workflow_family(base, n_variants=2, seed=index)
            ]
        spec = SweepSpec(
            instances=tuple(instances),
            gammas=(2, 3),
            kinds=("set", "cardinality"),
            solvers=("auto", "greedy"),
        )
        assert len(spec.cells()) == 72
        serial = run_sweep(spec, n_jobs=1)
        parallel = run_sweep(spec, n_jobs=2)
        assert parallel.n_jobs == 2
        assert serial.errors == parallel.errors == 0
        assert [scrub_record(r) for r in parallel.records] == [
            scrub_record(r) for r in serial.records
        ]
        assert serial.stats["chunks"] == parallel.stats["chunks"] == 3
        for name in ("scalar_masks", "batched_masks", "rederived_modules"):
            assert parallel.stats[name] == serial.stats[name], name
        assert serial.stats["scalar_masks"] + serial.stats["batched_masks"] > 0


class TestFailureIsolation:
    def test_bad_solver_yields_error_record_not_dead_sweep(self):
        spec = _spec(solvers=("lp_rounding", "greedy"))  # lp_rounding: wrong kind
        report = run_sweep(spec, n_jobs=1)
        errors = [r for r in report.records if "error" in r]
        oks = [r for r in report.records if "error" not in r]
        assert len(errors) == 2 and len(oks) == 2
        assert all(r["cost"] == float("inf") for r in errors)
        assert all(r["method"] == "lp_rounding" for r in errors)

    def test_error_records_match_across_serial_and_parallel(self):
        spec = _spec(solvers=("lp_rounding", "greedy"))
        serial = run_sweep(spec, n_jobs=1)
        parallel = run_sweep(spec, n_jobs=2)
        assert [scrub_record(r) for r in serial.records] == [
            scrub_record(r) for r in parallel.records
        ]


class TestStoreIntegration:
    def test_warm_store_performs_zero_derivations(self, tmp_path):
        spec = _spec()
        store = tmp_path / "store"
        cold = run_sweep(spec, n_jobs=2, store=store)
        assert cold.stats["derivation_misses"] > 0
        assert cold.stats["chunks"] > 0
        warm = run_sweep(spec, n_jobs=2, store=store)
        assert warm.stats["derivation_misses"] == 0
        assert warm.result_store_hits == len(warm.records)
        assert warm.stats["chunks"] == 0  # answered in the driver
        assert [scrub_record(r) for r in warm.records] == [
            scrub_record(r) for r in cold.records
        ]
        assert all(r["from_store"] for r in warm.records)

    def test_infeasible_gamma_failures_are_served_from_store(self, tmp_path):
        # Γ=6 is infeasible for these instances (RequirementError), which is
        # a pure function of workflow content: the warm run must skip even
        # the failing cells' derivations.
        instances = tuple(
            SweepInstance(
                f"w{seed}", "workflow", workflow_to_dict(random_workflow(5, seed=seed))
            )
            for seed in (1, 2)
        )
        spec = SweepSpec(
            instances=instances, gammas=(2, 6), kinds=("set",), solvers=("greedy",)
        )
        store = tmp_path / "store"
        cold = run_sweep(spec, n_jobs=1, store=store)
        assert cold.errors == 2
        assert all(
            record["error_type"] == "RequirementError"
            for record in cold.records
            if "error" in record
        )
        warm = run_sweep(spec, n_jobs=1, store=store)
        assert warm.errors == 2
        assert warm.stats["derivation_misses"] == 0
        assert warm.result_store_hits == len(warm.records)
        assert warm.stats["chunks"] == 0
        assert [scrub_record(r) for r in warm.records] == [
            scrub_record(r) for r in cold.records
        ]

    def test_solver_applicability_failures_are_not_persisted(self, tmp_path):
        # SolverError (wrong-kind solver) depends on registry metadata that
        # can change across versions — never served from a warm store.
        spec = _spec(solvers=("lp_rounding", "greedy"))
        store = tmp_path / "store"
        run_sweep(spec, n_jobs=1, store=store)
        warm = run_sweep(spec, n_jobs=1, store=store)
        assert warm.errors == 2
        assert warm.stats["derivation_misses"] == 0  # derivations still shared
        assert warm.result_store_hits == 2  # only the successful greedy cells

    def test_fresh_results_still_reuses_derivations(self, tmp_path):
        spec = _spec()
        store = tmp_path / "store"
        cold = run_sweep(spec, n_jobs=1, store=store)
        warm = run_sweep(spec, n_jobs=1, store=store, reuse_results=False)
        assert warm.result_store_hits == 0
        assert warm.stats["chunks"] == cold.stats["chunks"]  # no driver probe
        assert warm.stats["derivation_misses"] == 0  # derivations from store
        assert warm.stats["store_hits"] > 0

    def test_serial_run_updates_caller_store_counters(self, tmp_path):
        from repro.engine import DerivationStore

        store = DerivationStore(tmp_path / "store")
        run_sweep(_spec(), n_jobs=1, store=store)
        assert store.stats()["writes"] > 0
        run_sweep(_spec(), n_jobs=1, store=store)
        assert store.stats()["result_hits"] > 0


class TestDriverProbe:
    """The driver answers stored cells itself and dispatches only the rest."""

    def test_results_keyed_through_live_planner_are_served_warm(self, tmp_path):
        from repro.engine import DerivationCache, DerivationStore, Planner
        from repro.engine.executor import solve_cell

        spec = _spec()
        workflows = {f"w{seed}": random_workflow(5, seed=seed) for seed in (1, 2)}
        cache = DerivationCache(store=DerivationStore(tmp_path / "store"))
        for cell in spec.cells():
            workflow = workflows[cell.label]
            planner = Planner(workflow, cell.gamma, kind=cell.kind, cache=cache)
            # The live-object key: the workflow tabulated and hashed.
            fingerprint = workflow_fingerprint(workflow)
            solve_cell(planner, fingerprint, cell.label, cell.solver, cell.seed)
        warm = run_sweep(spec, n_jobs=2, store=tmp_path / "store")
        assert warm.stats["chunks"] == 0
        assert warm.result_store_hits == len(spec.cells())
        assert warm.stats["derivation_misses"] == 0
        assert all(record["from_store"] for record in warm.records)
        assert [scrub_record(r) for r in warm.records] == [
            scrub_record(r) for r in run_sweep(spec, n_jobs=1).records
        ]

    def test_half_warm_store_dispatches_only_the_unstored_cells(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_spec(solvers=("greedy",)), n_jobs=1, store=store)
        spec = _spec()
        half = run_sweep(spec, n_jobs=2, store=store)
        stored = [(r["solver"], r["from_store"]) for r in half.records]
        assert stored == [("set_lp", False), ("greedy", True)] * 2
        assert half.result_store_hits == 2
        unstored = run_sweep(_spec(solvers=("set_lp",)), n_jobs=1)
        assert half.stats["chunks"] == unstored.stats["chunks"]
        assert [scrub_record(r) for r in half.records] == [
            scrub_record(r) for r in run_sweep(spec, n_jobs=1).records
        ]

    def test_payload_that_does_not_fingerprint_still_fails_per_cell(self, tmp_path):
        bad = workflow_to_dict(random_workflow(5, seed=2))
        del bad["modules"][0]["table"][0]
        spec = SweepSpec(
            instances=(
                SweepInstance(
                    "good", "workflow", workflow_to_dict(random_workflow(5, seed=1))
                ),
                SweepInstance("bad", "workflow", bad),
            ),
            solvers=("greedy",),
        )
        store = tmp_path / "store"
        run_sweep(spec, n_jobs=1, store=store)
        warm = run_sweep(spec, n_jobs=1, store=store)
        assert [r["from_store"] for r in warm.records] == [True, False]
        assert warm.records[1]["error_type"] == "SchemaError"
        assert "no tabulated output" in warm.records[1]["error"]
        assert warm.stats["chunks"] == 1

    def test_rebuilt_workflows_are_not_tabulated_to_be_hashed(
        self, tmp_path, monkeypatch
    ):
        import repro.workloads.fingerprint as fingerprint

        def tabulated(workflow):
            raise AssertionError("a rebuilt workflow was tabulated to be hashed")

        monkeypatch.setattr(fingerprint, "workflow_fingerprint", tabulated)
        report = run_sweep(_spec(), n_jobs=1, store=tmp_path / "store")
        assert report.errors == 0


class TestContentKeying:
    """Each process keys instances and planners by content, not by label."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_one_workflow_under_two_labels_derives_once(self, n_jobs):
        payload = workflow_to_dict(random_workflow(5, seed=1))
        spec = SweepSpec(
            instances=(
                SweepInstance("a", "workflow", payload),
                SweepInstance("b", "workflow", dict(payload)),
            ),
            solvers=("greedy",),
        )
        report = run_sweep(spec, n_jobs=n_jobs)
        assert report.errors == 0
        assert report.stats["derivation_misses"] == 1
        # The second label reuses the first one's mapping, not its modules.
        assert report.stats["reused_modules"] == 0
        first, second = (
            {k: v for k, v in scrub_record(r).items() if k not in ("workflow", "index")}
            for r in report.records
        )
        assert [r["workflow"] for r in report.records] == ["a", "b"]
        assert first == second

    def test_family_grid_rebuilds_each_workflow_once(self, monkeypatch):
        """A worker's tables are sized from the grid: no instance it needs
        again at the second Γ point was evicted after the first."""
        import repro.workloads.serialization as serialization

        rebuilt: list[str] = []
        rebuild = serialization.workflow_from_dict

        def counted(payload):
            rebuilt.append(payload["name"])
            return rebuild(payload)

        monkeypatch.setattr(serialization, "workflow_from_dict", counted)
        family = workflow_family(n_variants=69, seed=3, n_modules=3)
        spec = SweepSpec(
            instances=tuple(
                SweepInstance(w.name, "workflow", workflow_to_dict(w)) for w in family
            ),
            gammas=(1, 2),
            solvers=("greedy",),
        )
        report = run_sweep(spec, n_jobs=1)  # in-process, so the count is visible
        assert report.errors == 0
        assert report.stats["chunks"] == 1  # one family, one worker
        assert len(family) == 70
        assert sorted(rebuilt) == sorted(w.name for w in family)


class TestKeysOncePerProcess:
    """The driver and the runner read one process-wide memo of payload keys."""

    def test_a_second_pass_builds_no_instance_keys(self, monkeypatch):
        import repro.workloads.fingerprint as fingerprint

        spec = _spec()
        first = run_sweep(spec, n_jobs=1)
        built: list[str] = []
        build = fingerprint.InstanceKeys.__init__

        def counted(keys, source, payload):
            built.append(payload["name"])
            build(keys, source, payload)

        monkeypatch.setattr(fingerprint.InstanceKeys, "__init__", counted)
        second = run_sweep(spec, n_jobs=1)
        assert built == []
        assert second.errors == 0
        assert [scrub_record(r) for r in second.records] == [
            scrub_record(r) for r in first.records
        ]

    def test_a_payload_edited_in_place_is_solved_again(self, tmp_path):
        from repro.workloads.fingerprint import instance_keys

        payload = workflow_to_dict(random_workflow(5, seed=4))
        spec = SweepSpec(
            instances=(SweepInstance("w", "workflow", payload),),
            solvers=("greedy",),
        )
        store = tmp_path / "store"
        run_sweep(spec, n_jobs=1, store=store)
        before = instance_keys("workflow", payload).fingerprint
        image = payload["modules"][0]["table"][0][1]
        image[0] = 1 - image[0]  # one table image flipped, in place
        after = instance_keys("workflow", payload).fingerprint
        assert after != before
        assert after == workflow_fingerprint(workflow_from_dict(payload))
        edited = run_sweep(spec, n_jobs=1, store=store)
        assert edited.result_store_hits == 0
        assert edited.stats["chunks"] == 1
        assert edited.records[0]["from_store"] is False
        fresh = run_sweep(spec, n_jobs=1)  # no store: solved from the edit
        assert [scrub_record(r) for r in edited.records] == [
            scrub_record(r) for r in fresh.records
        ]

    def test_a_payload_holding_a_non_json_value_leaves_no_memo_entry(self):
        import repro.workloads.fingerprint as fingerprint

        payload = workflow_to_dict(random_workflow(5, seed=6))
        keyed = {**payload, "note": {"not", "json"}}  # a set: no JSON encoding
        memo = list(fingerprint._keys)
        keys = fingerprint.instance_keys("workflow", keyed)
        assert keys.fingerprint == workflow_fingerprint(workflow_from_dict(payload))
        assert fingerprint.instance_keys("workflow", keyed) is not keys
        report = run_sweep(
            SweepSpec(
                instances=(SweepInstance("w", "workflow", keyed),),
                solvers=("greedy",),
            ),
            n_jobs=1,
        )
        assert report.errors == 0
        assert list(fingerprint._keys) == memo

    def test_resolve_reports_the_rebuild_error_of_a_payload_failing_both_ways(self):
        from repro.exceptions import SchemaError
        from repro.workloads.fingerprint import instance_keys

        payload = workflow_to_dict(random_workflow(5, seed=2))
        # Keying fails on the missing row; rebuilding on the second producer.
        del payload["modules"][0]["table"][0]
        with pytest.raises(SchemaError):
            instance_keys("workflow", payload)
        first, second = payload["modules"][:2]
        second["outputs"][0]["name"] = first["outputs"][0]["name"]
        with pytest.raises(WiringError):
            workflow_from_dict(payload)
        with pytest.raises(WiringError):
            SolveRunner().resolve("workflow", payload)


class TestColdPassBookkeeping:
    """A cold pass hashes each module once, from its payload, evaluates γ
    once per workflow and writes each module's code sidecar once; a warm
    pass hashes no module at all."""

    def _grid(self):
        family = workflow_family(n_variants=3, seed=5, n_modules=4)
        spec = SweepSpec(
            instances=tuple(
                SweepInstance(w.name, "workflow", workflow_to_dict(w)) for w in family
            ),
            gammas=(1, 2),
            kinds=("set", "cardinality"),
            solvers=("greedy",),
        )
        return family, spec

    def test_cold_pass_takes_module_keys_from_payloads(self, tmp_path, monkeypatch):
        import repro.workloads.fingerprint as fingerprint
        from repro.engine import DerivationStore

        family, spec = self._grid()
        distinct = {module_fingerprint(m) for w in family for m in w.private_modules}
        calls: Counter = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for owner, name in (
            (fingerprint, "module_fingerprint"),
            (DerivationStore, "_write_bytes"),
        ):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        memos: dict[str, list] = {}
        write = DerivationStore._write

        def recorded(store, category, path, payload):
            if category == "module_pack":
                memos.setdefault(str(path), []).append(payload["levels"])
            return write(store, category, path, payload)

        monkeypatch.setattr(DerivationStore, "_write", recorded)
        cold = run_sweep(spec, n_jobs=1, store=tmp_path / "store")
        assert cold.errors == 0
        # Every module's key came down from its payload: none was tabulated.
        assert calls["module_fingerprint"] == 0
        # A module is derived at every (Γ, kind) point, but its code sidecar
        # is written once, and its pack document again only when the
        # derivation added privacy levels to the memo.
        assert cold.stats["rederived_modules"] > len(distinct)
        assert calls["_write_bytes"] == len(distinct)
        assert len(memos) == len(distinct)
        for levels in memos.values():
            assert all(len(a) < len(b) for a, b in zip(levels, levels[1:]))
        # The last documents hold every level the pass evaluated.
        evaluated = cold.stats["scalar_masks"] + cold.stats["batched_masks"]
        assert sum(len(levels[-1]) for levels in memos.values()) == evaluated

    def test_cold_pass_counts_gamma_once_per_workflow(self, tmp_path, monkeypatch):
        from repro.core import Workflow

        _, spec = self._grid()
        consumers_of = Workflow.consumers_of
        looked_up: list[str] = []

        def counted_consumers(workflow, name):
            looked_up.append(name)
            return consumers_of(workflow, name)

        monkeypatch.setattr(Workflow, "consumers_of", counted_consumers)
        run_sweep(spec, n_jobs=1, store=tmp_path / "first")
        # Greedy's guarantee reads γ; nothing recounts it attribute by attribute.
        assert looked_up == []

        count_sharing = Workflow._count_data_sharing
        counted: list[Workflow] = []  # held, so no id is reused

        def counted_sharing(workflow):
            counted.append(workflow)
            return count_sharing(workflow)

        monkeypatch.setattr(Workflow, "_count_data_sharing", counted_sharing)
        report = run_sweep(spec, n_jobs=1, store=tmp_path / "second")
        assert report.errors == 0
        assert counted and len({id(w) for w in counted}) == len(counted)

    def test_warm_pass_hashes_no_module(self, tmp_path, monkeypatch):
        import repro.workloads.fingerprint as fingerprint

        _, spec = self._grid()
        run_sweep(spec, n_jobs=1, store=tmp_path / "store")
        hashed: list[str] = []
        canonical = fingerprint._canonical_module_dict

        def counted(payload):
            hashed.append(payload["name"])
            return canonical(payload)

        monkeypatch.setattr(fingerprint, "_canonical_module_dict", counted)
        warm = run_sweep(spec, n_jobs=1, store=tmp_path / "store")
        assert warm.stats["chunks"] == 0
        assert warm.result_store_hits == len(spec.cells())
        assert hashed == []


class TestVerification:
    def test_verify_attaches_certificates(self):
        spec = SweepSpec(
            instances=(
                SweepInstance("fig1", "workflow", workflow_to_dict(figure1_workflow())),
            ),
            solvers=("exact",),
        )
        report = run_sweep(spec, n_jobs=1)
        assert report.records[0]["verified"] is True


class TestGridFile:
    def test_spec_from_grid_reads_workflow_and_problem_files(self, tmp_path):
        from repro.workloads import dump_problem

        problem = random_problem(n_modules=5, kind="set", seed=4)
        problem_path = tmp_path / "p.json"
        dump_problem(problem, str(problem_path))
        workflow_path = tmp_path / "w.json"
        workflow_path.write_text(
            json.dumps(workflow_to_dict(random_workflow(4, seed=6)))
        )
        grid = {
            "workflows": ["w.json", "p.json"],  # problem file contributes its workflow
            "problems": ["p.json"],
            "gammas": [2],
            "kinds": ["set"],
            "solvers": ["greedy"],
            "seeds": [0],
        }
        spec = spec_from_grid(grid, base_dir=str(tmp_path))
        assert len(spec.instances) == 3
        assert [i.source for i in spec.instances] == ["workflow", "workflow", "problem"]
        labels = [i.label for i in spec.instances]
        assert len(set(labels)) == 3  # duplicate basenames are disambiguated
        report = run_sweep(spec, n_jobs=1)
        assert report.errors == 0 and len(report.records) == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            spec_from_grid({"gammas": [2]})

    def test_non_object_grid_rejected(self):
        with pytest.raises(ValueError):
            spec_from_grid([1, 2])

    def test_string_axis_rejected(self):
        with pytest.raises(ValueError):
            spec_from_grid({"workflows": "w1.json"})
