"""Tests for content-addressed workflow fingerprints."""

from __future__ import annotations


from repro.core import Module, Workflow, boolean_attributes
from repro.workloads import (
    canonical_workflow_payload,
    figure1_workflow,
    module_fingerprint,
    module_payload_fingerprint,
    payload_fingerprint,
    random_workflow,
    workflow_fingerprint,
    workflow_from_dict,
    workflow_to_dict,
)


def _reversed_keys(obj):
    """Rebuild a JSON payload with every dict's key order reversed."""
    if isinstance(obj, dict):
        return {key: _reversed_keys(obj[key]) for key in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reversed_keys(item) for item in obj]
    return obj


class TestFingerprintStability:
    def test_deterministic_across_calls(self):
        workflow = figure1_workflow()
        assert workflow_fingerprint(workflow) == workflow_fingerprint(workflow)

    def test_equal_for_independent_builds(self):
        assert workflow_fingerprint(figure1_workflow()) == workflow_fingerprint(
            figure1_workflow()
        )

    def test_survives_serialization_round_trip(self):
        workflow = random_workflow(6, seed=3)
        rebuilt = workflow_from_dict(workflow_to_dict(workflow))
        assert workflow_fingerprint(rebuilt) == workflow_fingerprint(workflow)

    def test_invariant_under_module_order(self):
        a, b, c = boolean_attributes(["a", "b", "c"])
        first = Module("first", [a], [b], lambda v: {"b": v["a"]})
        second = Module("second", [b], [c], lambda v: {"c": 1 - v["b"]})
        one = Workflow([first, second], name="chain")
        other = Workflow([second, first], name="chain")
        assert workflow_fingerprint(one) == workflow_fingerprint(other)

    def test_invariant_under_payload_dict_ordering(self):
        workflow = random_workflow(5, seed=9)
        payload = workflow_to_dict(workflow)
        shuffled = _reversed_keys(payload)
        shuffled["modules"] = list(reversed(shuffled["modules"]))
        rebuilt = workflow_from_dict(shuffled)
        assert workflow_fingerprint(rebuilt) == workflow_fingerprint(workflow)


class TestFingerprintSensitivity:
    def test_differs_across_workflows(self):
        assert workflow_fingerprint(random_workflow(5, seed=1)) != workflow_fingerprint(
            random_workflow(5, seed=2)
        )

    def test_differs_when_functionality_changes(self):
        a, b = boolean_attributes(["a", "b"])
        identity = Workflow(
            [Module("m", [a], [b], lambda v: {"b": v["a"]})], name="w"
        )
        negation = Workflow(
            [Module("m", [a], [b], lambda v: {"b": 1 - v["a"]})], name="w"
        )
        assert workflow_fingerprint(identity) != workflow_fingerprint(negation)

    def test_differs_when_cost_changes(self):
        workflow = figure1_workflow()
        reweighted = workflow.with_attribute_costs({"a1": 42.0})
        assert workflow_fingerprint(workflow) != workflow_fingerprint(reweighted)


class TestPayloadFingerprint:
    def test_key_order_does_not_matter(self):
        assert payload_fingerprint({"x": 1, "y": [2, 3]}) == payload_fingerprint(
            {"y": [2, 3], "x": 1}
        )

    def test_canonical_payload_sorts_modules(self):
        payload = canonical_workflow_payload(figure1_workflow())
        names = [module["name"] for module in payload["modules"]]
        assert names == sorted(names)


class TestModuleFingerprint:
    """The shared module tier's key: content only, costs/flags excluded."""

    def test_equal_for_independent_builds(self):
        one = figure1_workflow().module("m1")
        two = figure1_workflow().module("m1")
        assert one is not two
        assert module_fingerprint(one) == module_fingerprint(two)

    def test_differs_when_functionality_changes(self):
        a, b = boolean_attributes(["a", "b"])
        identity = Module("m", [a], [b], lambda v: {"b": v["a"]})
        negation = Module("m", [a], [b], lambda v: {"b": 1 - v["a"]})
        assert module_fingerprint(identity) != module_fingerprint(negation)

    def test_differs_when_name_changes(self):
        a, b = boolean_attributes(["a", "b"])
        module = Module("m", [a], [b], lambda v: {"b": v["a"]})
        assert module_fingerprint(module) != module_fingerprint(module.renamed("n"))

    def test_invariant_under_costs_and_privacy_flags(self):
        # Derivation artifacts never consult costs or the private flag, so
        # a what-if re-costing or a privatization must hit the same entry.
        module = figure1_workflow().module("m1")
        fingerprint = module_fingerprint(module)
        recosted = module.with_attribute_costs({module.attribute_names[0]: 42.0})
        assert module_fingerprint(recosted) == fingerprint
        public = Module(
            module.name,
            list(module.input_schema.attributes),
            list(module.output_schema.attributes),
            module._function,
            private=False,
            privatization_cost=99.0,
        )
        assert module_fingerprint(public) == fingerprint

    def test_payload_path_matches_live_path(self):
        # The executor fingerprints serialized module dicts directly; both
        # routes must produce the same digest or families fall apart.
        workflow = random_workflow(4, seed=13)
        payload = workflow_to_dict(workflow)
        for module, entry in zip(workflow.modules, payload["modules"]):
            assert module_payload_fingerprint(entry) == module_fingerprint(module)

    def test_workflow_name_does_not_leak_into_module_fingerprints(self):
        # Edit-chain variants rename the *workflow*; their untouched modules
        # must keep their fingerprints to share derivations.
        workflow = random_workflow(3, seed=21)
        renamed = Workflow(list(workflow.modules), name="elsewhere")
        for module in workflow.modules:
            assert module_fingerprint(module) == module_fingerprint(
                renamed.module(module.name)
            )


class TestKeysMemo:
    """One process-wide memo of payload keys, shared by threads."""

    def test_threads_share_one_entry_per_payload_within_the_bound(self):
        import sys
        import threading

        import repro.workloads.fingerprint as fingerprint

        shared = [
            {**workflow_to_dict(random_workflow(3, seed=seed)), "name": f"memo-{seed}"}
            for seed in range(24)
        ]
        n_threads = 8  # more than cores
        seen: list[list] = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def work(slot: int) -> None:
            for payload in shared:  # every thread misses on each payload at once
                barrier.wait(timeout=30)
                keys = fingerprint.instance_keys("workflow", payload)
                seen[slot].append((keys, keys.modules()))
            barrier.wait(timeout=30)
            for step in range(40):  # 320 payloads in all: past the bound
                fingerprint.instance_keys("problem", {"thread": slot, "step": step})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(entries) == len(shared) for entries in seen)
        for index, payload in enumerate(shared):
            answers = [entries[index] for entries in seen]
            # Every thread got the first keys stored, and their module keys.
            assert len({id(keys) for keys, _ in answers}) == 1
            expected = {
                module.name: module_fingerprint(module)
                for module in workflow_from_dict(payload).modules
            }
            assert all(modules == expected for _, modules in answers)
        assert len(fingerprint._keys) == fingerprint._KEYS_LIMIT
