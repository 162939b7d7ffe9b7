"""Property tests: module-granular assembly never changes an answer.

PR 4 rebuilds workflow requirement derivation as an assembly of per-module
lookups keyed by module content fingerprint.  Three contracts must hold on
randomized instances:

* assembling a workflow's requirement mapping from per-module derivations
  yields *exactly* what the whole-workflow path yields — same modules, same
  mapping order, same options — on both backends;
* per-module artifacts served from the store's shared ``modules/`` tier
  (with the workflow-level fast path disabled) equal fresh derivations;
* a compiled module round-tripped through its store payload (privacy-level
  memos included) answers every sweep identically to a fresh compilation.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import derive_workflow_requirements
from repro.engine import DerivationCache, DerivationStore
from repro.exceptions import RequirementError
from repro.kernel import CompiledModule, compile_module
from repro.workloads import module_fingerprint, random_workflow, workflow_family

seeds = st.integers(min_value=0, max_value=2**31 - 1)
gammas = st.integers(min_value=2, max_value=3)
kinds = st.sampled_from(["set", "cardinality"])


def signature(lists):
    """Structural form of a requirement mapping (object-identity free)."""
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


@settings(max_examples=20, deadline=None)
@given(seeds, gammas, kinds)
def test_module_assembly_equals_whole_workflow_path(seed, gamma, kind):
    """Cache assembly == derive_workflow_requirements, on both backends."""
    workflow = random_workflow(3, seed=seed % 1000, max_inputs=2)
    try:
        assembled = DerivationCache().requirements(workflow, gamma, kind)
    except RequirementError:
        assume(False)
    for backend in ("kernel", "reference"):
        direct = derive_workflow_requirements(
            workflow, gamma, kind=kind, backend=backend
        )
        assert list(assembled) == list(direct)  # mapping (constraint) order
        assert signature(assembled) == signature(direct)


@settings(max_examples=10, deadline=None)
@given(seeds, gammas, kinds)
def test_module_tier_store_round_trip_matches_fresh(seed, gamma, kind):
    """Per-module entries served from disk equal fresh derivations, even
    when the workflow-level requirement file is gone."""
    family = workflow_family(
        n_variants=1, seed=seed % 1000, n_modules=3, topology="chain"
    )
    base, variant = family
    directory = tempfile.mkdtemp(prefix="repro-prop-store-")
    try:
        store = DerivationStore(directory)
        cold = DerivationCache(store=store)
        try:
            cold.requirements(base, gamma, kind)
        except RequirementError:
            assume(False)
        # Drop every workflow-tier entry; only the shared modules/ tier
        # remains, so the warm path must assemble from per-module lookups.
        for child in store.root.iterdir():
            if child.name != "modules":
                shutil.rmtree(child)
        warm = DerivationCache(store=store)
        served = warm.requirements(variant, gamma, kind)
        fresh = DerivationCache().requirements(variant, gamma, kind)
        assert list(served) == list(fresh)
        assert signature(served) == signature(fresh)
        # Exactly the edited module was derived; shared ones came from disk.
        changed = sum(
            1
            for m in variant.modules
            if module_fingerprint(m) != module_fingerprint(base.module(m.name))
        )
        assert warm.rederived_modules == changed
        assert warm.reused_modules == len(base) - changed
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@settings(max_examples=20, deadline=None)
@given(seeds, gammas)
def test_compiled_module_payload_round_trip_is_lossless(seed, gamma):
    """A store round-tripped module pack (memos included) answers every
    privacy question identically to a fresh compilation."""
    workflow = random_workflow(2, seed=seed % 1000, max_inputs=2)
    module = workflow.modules[seed % len(workflow.modules)]
    fresh = compile_module(module)
    fresh.minimal_safe_hidden_subsets(gamma)  # populate level memos
    loaded = CompiledModule.from_payload(module, fresh.to_payload())
    assert loaded._level_cache == fresh._level_cache
    assert loaded.minimal_safe_hidden_subsets(gamma) == (
        fresh.minimal_safe_hidden_subsets(gamma)
    )
    assert loaded.enumerate_safe_hidden_subsets(gamma) == (
        fresh.enumerate_safe_hidden_subsets(gamma)
    )
    assert loaded.safe_cardinality_pairs(gamma) == fresh.safe_cardinality_pairs(gamma)
    visible = list(module.attribute_names)[:: 2]
    assert loaded.privacy_level(visible) == fresh.privacy_level(visible)
    assert loaded.out_counts(visible) == fresh.out_counts(visible)
