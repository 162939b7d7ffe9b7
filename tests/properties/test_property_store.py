"""Property tests: fingerprints and store round-trips preserve semantics.

Two contracts back the persistent derivation store:

* ``workflow_fingerprint`` is a pure function of workflow *content* — it
  must not depend on module registration order or on the key order of any
  dict in the serialized payload, and it must survive a serialize →
  deserialize round trip (otherwise two processes would file the same
  instance under different keys and never share derivations);
* ``instance_fingerprint`` hashes a serialized workflow without rebuilding
  it, and must equal ``workflow_fingerprint`` of the rebuilt workflow bit
  for bit — and raise what it raises — or a sweep driver, a sweep worker
  and the solve service would key one instance differently; the module
  fingerprints the same pass yields (``InstanceKeys.modules``) must equal
  ``module_fingerprint`` of each rebuilt module, or the ``modules/`` tier
  would file one module under two keys;
* artifacts that pass through the store (requirement lists, packed module
  tables) must produce verdicts *identical* to freshly computed ones, on
  both backends — a store hit may never change an answer.
"""

from __future__ import annotations

import random
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Module,
    Workflow,
    boolean_attributes,
    derive_workflow_requirements,
    standalone_out_counts,
    standalone_privacy_level,
)
from repro.engine import DerivationCache, DerivationStore
from repro.exceptions import DomainError, SchemaError
from repro.kernel import CompiledModule
from repro.workloads import (
    InstanceKeys,
    instance_fingerprint,
    module_fingerprint,
    random_workflow,
    workflow_family,
    workflow_fingerprint,
    workflow_from_dict,
    workflow_to_dict,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def small_chain(seed: int) -> Workflow:
    """A 2-module boolean chain small enough for reference possible-worlds."""
    rng = random.Random(seed)
    a0, a1, b0, b1, c0 = boolean_attributes(["a0", "a1", "b0", "b1", "c0"])
    table = {
        (x, y): (rng.randint(0, 1), rng.randint(0, 1)) for x in (0, 1) for y in (0, 1)
    }

    def first_fn(values, _table=table):
        b = _table[(values["a0"], values["a1"])]
        return {"b0": b[0], "b1": b[1]}

    flip = rng.randint(0, 1)

    def second_fn(values, _flip=flip):
        return {"c0": (values["b0"] ^ values["b1"]) ^ _flip}

    first = Module("first", [a0, a1], [b0, b1], first_fn)
    second = Module("second", [b0, b1], [c0], second_fn, private=rng.random() < 0.7)
    return Workflow([first, second], name=f"chain{seed % 97}")


def _shuffle_payload(payload, rng: random.Random):
    """Rebuild a JSON payload with every dict's key order randomized."""
    if isinstance(payload, dict):
        keys = list(payload)
        rng.shuffle(keys)
        return {key: _shuffle_payload(payload[key], rng) for key in keys}
    if isinstance(payload, list):
        return [_shuffle_payload(item, rng) for item in payload]
    return payload


@settings(max_examples=20, deadline=None)
@given(seeds, seeds)
def test_fingerprint_invariant_under_dict_and_module_ordering(seed, shuffle_seed):
    """The same content fingerprints identically however it was assembled."""
    workflow = random_workflow(4, seed=seed % 1000)
    rng = random.Random(shuffle_seed)
    payload = _shuffle_payload(workflow_to_dict(workflow), rng)
    modules = list(payload["modules"])
    rng.shuffle(modules)
    payload["modules"] = modules
    rebuilt = workflow_from_dict(payload)
    assert workflow_fingerprint(rebuilt) == workflow_fingerprint(workflow)


def _family_payload(seed: int) -> dict:
    """One serialized member of a random ``workflow_family`` edit chain,
    its costs rounded to whole numbers (still written as floats)."""
    rng = random.Random(seed)
    family = workflow_family(
        n_variants=2,
        seed=seed % 1000,
        n_modules=rng.randint(2, 5),
        topology=rng.choice(["chain", "layered", "random"]),
    )
    payload = workflow_to_dict(rng.choice(family))
    for module in payload["modules"]:
        module["privatization_cost"] = float(round(module["privatization_cost"]))
        for attribute in module["inputs"] + module["outputs"]:
            attribute["cost"] = float(round(attribute["cost"]))
    return payload


def _rewritten(payload: dict, rng: random.Random) -> dict:
    """The same content written differently: shuffled module, row and key
    order, defaults omitted, costs as integers, duplicated domain values,
    extra rows outside the input domain and values past an image's last
    output (the rebuilt module ignores both)."""
    payload = _shuffle_payload(payload, rng)
    rng.shuffle(payload["modules"])
    for module in payload["modules"]:
        rng.shuffle(module["table"])
        if module["private"] and rng.random() < 0.5:
            del module["private"]
        if module["privatization_cost"] == 1.0 and rng.random() < 0.5:
            del module["privatization_cost"]
        else:
            module["privatization_cost"] = int(module["privatization_cost"])
        for attribute in module["inputs"] + module["outputs"]:
            if attribute["cost"] == 1.0 and rng.random() < 0.5:
                del attribute["cost"]
            else:
                attribute["cost"] = int(attribute["cost"])
            if rng.random() < 0.3:
                attribute["values"].append(rng.choice(attribute["values"]))
        if rng.random() < 0.3:
            rng.choice(module["table"])[1].append(0)
        if rng.random() < 0.5:
            # Boolean domains: a 2 in the key is outside every input domain.
            module["table"].append(
                [[2] * len(module["inputs"]), [0] * len(module["outputs"])]
            )
    return payload


@settings(max_examples=40, deadline=None)
@given(seeds, seeds)
def test_payload_fingerprint_matches_rebuilt_workflow(seed, rewrite_seed):
    """The payload path keys an instance, and each of its modules, exactly
    as its rebuilt workflow."""
    payload = _family_payload(seed)
    rewritten = _rewritten(payload, random.Random(rewrite_seed))
    expected = workflow_fingerprint(workflow_from_dict(payload))
    assert workflow_fingerprint(workflow_from_dict(rewritten)) == expected
    assert instance_fingerprint("workflow", rewritten) == expected
    assert instance_fingerprint("workflow", payload) == expected
    rebuilt = workflow_from_dict(rewritten)
    modules = {module.name: module_fingerprint(module) for module in rebuilt}
    keys = InstanceKeys("workflow", rewritten)
    assert keys.fingerprint == expected
    assert keys.modules() == modules


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, st.sampled_from([SchemaError, DomainError]))
def test_payload_fingerprint_raises_where_tabulation_does(seed, defect_seed, error):
    """A missing row (SchemaError) or an output outside its domain
    (DomainError) fails both paths alike."""
    payload = _family_payload(seed)
    rng = random.Random(defect_seed)
    module = rng.choice(payload["modules"])
    row = rng.randrange(len(module["table"]))
    if error is SchemaError:
        del module["table"][row]
    else:
        image = module["table"][row][1]
        image[rng.randrange(len(image))] = 2
    with pytest.raises(error) as live:
        workflow_fingerprint(workflow_from_dict(payload))
    with pytest.raises(error) as direct:
        instance_fingerprint("workflow", payload)
    assert type(direct.value) is type(live.value)
    assert str(direct.value) == str(live.value)


@settings(max_examples=15, deadline=None)
@given(seeds, st.data())
def test_store_persisted_packs_match_fresh_compilation_and_reference(seed, data):
    """Privacy levels and out-counts from a store round-tripped module pack
    are identical to a freshly compiled pack's — and to the brute-force
    reference backend's."""
    workflow = small_chain(seed)
    module = data.draw(st.sampled_from(list(workflow.modules)))
    names = list(module.attribute_names)
    visible = frozenset(
        data.draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    )
    fresh = CompiledModule(module)
    with tempfile.TemporaryDirectory() as root:
        store = DerivationStore(root)
        fingerprint = module_fingerprint(module)
        store.save_module_pack(fingerprint, fresh)
        loaded = store.load_module_pack(fingerprint, module)
        assert loaded is not None
        level = loaded.privacy_level(visible)
        counts = loaded.out_counts(visible)
    assert level == fresh.privacy_level(visible)
    assert level == standalone_privacy_level(module, visible, backend="reference")
    assert counts == fresh.out_counts(visible)
    assert counts == standalone_out_counts(module, visible, backend="reference")


@settings(max_examples=10, deadline=None)
@given(
    seeds,
    st.integers(min_value=2, max_value=3),
    st.sampled_from(["set", "cardinality"]),
)
def test_store_round_tripped_requirements_match_both_backends(seed, gamma, kind):
    """Requirement lists served from a warm store equal fresh whole-workflow
    derivations on either backend (property-tested equal to each other)."""
    workflow = random_workflow(3, seed=seed % 1000, max_inputs=2)

    def signature(lists):
        # Compare options structurally: frozenset reprs are iteration-order
        # dependent and differ between round-tripped and fresh objects.
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

    from repro.exceptions import RequirementError

    with tempfile.TemporaryDirectory() as directory:
        store = DerivationStore(directory)
        cold = DerivationCache(store=store)
        try:
            persisted = cold.requirements(workflow, gamma, kind)
        except RequirementError:
            # Infeasible at this Γ — nothing to persist; property is vacuous.
            assume(False)

        warm = DerivationCache(store=store)
        served = warm.requirements(workflow, gamma, kind)
        assert warm.derivation_misses == 0

        assert signature(served) == signature(persisted)
        for backend in ("kernel", "reference"):
            direct = derive_workflow_requirements(
                workflow, gamma, kind=kind, backend=backend
            )
            assert signature(served) == signature(direct)
