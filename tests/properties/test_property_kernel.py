"""Property tests: the bit-compiled kernel agrees with the reference oracle.

For random small workloads, every privacy verdict, OUT-set, privacy level
and derived requirement list produced by ``backend="kernel"`` must be
*identical* to the brute-force ``backend="reference"`` path.  These tests
are the contract that lets the kernel be the default backend while the
original enumerators remain the ground truth.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Attribute,
    Module,
    Workflow,
    boolean_attributes,
    is_gamma_private_workflow,
    standalone_out_counts,
    standalone_privacy_level,
    workflow_out_sets,
)
from repro.core.attributes import integer_domain
from repro.core.requirements import (
    derive_cardinality_requirements,
    derive_set_requirements,
)
from repro.core.standalone import (
    enumerate_safe_hidden_subsets,
    minimal_safe_hidden_subsets,
    minimum_cost_safe_subset,
    safe_cardinality_pairs,
)
from repro.exceptions import InfeasibleError
from repro.kernel import HAVE_NUMPY, CompiledModule, sweep_batching
from repro.kernel.packing import NUMPY_MIN_ROWS


def random_boolean_module(
    seed: int, n_inputs: int, n_outputs: int, name: str = "m", prefix: str = ""
) -> Module:
    """A random total boolean function as a Module (same idiom as the
    privacy property tests)."""
    rng = random.Random(seed)
    input_names = [f"{prefix}i{k}" for k in range(n_inputs)]
    output_names = [f"{prefix}o{k}" for k in range(n_outputs)]
    table = {
        code: tuple(rng.randint(0, 1) for _ in range(n_outputs))
        for code in range(2**n_inputs)
    }

    def function(values):
        code = 0
        for index, attr in enumerate(input_names):
            code |= (values[attr] & 1) << index
        return dict(zip(output_names, table[code]))

    return Module(
        name,
        boolean_attributes(input_names),
        boolean_attributes(output_names),
        function,
    )


def random_two_module_chain(seed: int) -> Workflow:
    """A 2-module boolean chain, optionally with a public second module."""
    rng = random.Random(seed)
    first = random_boolean_module(
        rng.randrange(2**31), 2, 2, name="first", prefix="a"
    )
    chained_inputs = list(first.output_schema.attributes)
    source = random_boolean_module(rng.randrange(2**31), 2, 1, name="src", prefix="b")

    def second_fn(values, _src=source, _ins=[a.name for a in chained_inputs]):
        mapped = {
            src_name: values[actual]
            for src_name, actual in zip(_src.input_names, _ins)
        }
        return {"c0": _src.apply(mapped)[_src.output_names[0]]}

    second = Module(
        "second",
        chained_inputs,
        boolean_attributes(["c0"]),
        second_fn,
        private=rng.random() < 0.7,
    )
    return Workflow([first, second])


module_shapes = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=40, deadline=None)
@given(module_shapes, st.data())
def test_standalone_counts_and_levels_agree(shape, data):
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    names = list(module.attribute_names)
    visible = set(
        data.draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    )
    assert standalone_out_counts(module, visible, backend="kernel") == (
        standalone_out_counts(module, visible, backend="reference")
    )
    assert standalone_privacy_level(module, visible, backend="kernel") == (
        standalone_privacy_level(module, visible, backend="reference")
    )


@settings(max_examples=25, deadline=None)
@given(module_shapes, st.integers(min_value=2, max_value=4))
def test_safe_subset_sweeps_agree(shape, gamma):
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    assert enumerate_safe_hidden_subsets(module, gamma, backend="kernel") == (
        enumerate_safe_hidden_subsets(module, gamma, backend="reference")
    )
    assert minimal_safe_hidden_subsets(module, gamma, backend="kernel") == (
        minimal_safe_hidden_subsets(module, gamma, backend="reference")
    )
    assert safe_cardinality_pairs(module, gamma, backend="kernel") == (
        safe_cardinality_pairs(module, gamma, backend="reference")
    )


@settings(max_examples=25, deadline=None)
@given(module_shapes, st.integers(min_value=2, max_value=3))
def test_derived_requirement_lists_agree(shape, gamma):
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)

    def outcome(derive, extract):
        """(options, None) on success, (None, exception type) on failure."""
        try:
            return extract(derive()), None
        except Exception as error:
            return None, type(error)

    def set_options(lst):
        return [(option.hidden_inputs, option.hidden_outputs) for option in lst]

    def cardinality_options(lst):
        return [(option.alpha, option.beta) for option in lst]

    # Infeasible modules must fail identically on both backends.
    assert outcome(
        lambda: derive_set_requirements(module, gamma, backend="kernel"),
        set_options,
    ) == outcome(
        lambda: derive_set_requirements(module, gamma, backend="reference"),
        set_options,
    )
    assert outcome(
        lambda: derive_cardinality_requirements(module, gamma, backend="kernel"),
        cardinality_options,
    ) == outcome(
        lambda: derive_cardinality_requirements(module, gamma, backend="reference"),
        cardinality_options,
    )


@settings(max_examples=25, deadline=None)
@given(module_shapes, st.integers(min_value=2, max_value=4))
def test_minimum_cost_safe_subset_agrees(shape, gamma):
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    try:
        kernel_solution = minimum_cost_safe_subset(module, gamma, backend="kernel")
    except InfeasibleError:
        try:
            minimum_cost_safe_subset(module, gamma, backend="reference")
        except InfeasibleError:
            return
        raise AssertionError("kernel infeasible but reference feasible")
    reference_solution = minimum_cost_safe_subset(module, gamma, backend="reference")
    assert kernel_solution.hidden_attributes == reference_solution.hidden_attributes
    assert kernel_solution.cost == reference_solution.cost
    assert kernel_solution.meta["privacy_level"] == (
        reference_solution.meta["privacy_level"]
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.data())
def test_workflow_out_sets_agree(seed, data):
    workflow = random_two_module_chain(seed)
    names = list(workflow.attribute_names)
    visible = set(
        data.draw(
            st.lists(
                st.sampled_from(names), min_size=1, max_size=len(names), unique=True
            )
        )
    )
    hidden_public = (
        tuple(m.name for m in workflow.public_modules)
        if workflow.public_modules and data.draw(st.booleans())
        else ()
    )
    for module_name in workflow.module_names:
        kernel_sets = workflow_out_sets(
            workflow,
            module_name,
            visible,
            hidden_public_modules=hidden_public,
            backend="kernel",
        )
        reference_sets = workflow_out_sets(
            workflow,
            module_name,
            visible,
            hidden_public_modules=hidden_public,
            backend="reference",
        )
        assert kernel_sets == reference_sets


# ---------------------------------------------------------------------------
# PR 8: batched mask-sweep kernel — batched vs scalar vs reference
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(module_shapes, st.integers(min_value=2, max_value=4))
def test_batched_sweeps_three_way_parity(shape, gamma):
    """Batched kernel == scalar kernel == reference for every sweep output."""
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    reference = (
        enumerate_safe_hidden_subsets(module, gamma, backend="reference"),
        minimal_safe_hidden_subsets(module, gamma, backend="reference"),
        safe_cardinality_pairs(module, gamma, backend="reference"),
    )
    for batched in (True, False):
        with sweep_batching(batched):
            compiled = CompiledModule(module)
            got = (
                compiled.enumerate_safe_hidden_subsets(gamma),
                compiled.minimal_safe_hidden_subsets(gamma),
                compiled.safe_cardinality_pairs(gamma),
            )
        assert got == reference, f"batched={batched} disagrees with reference"


@settings(max_examples=20, deadline=None)
@given(module_shapes, st.data())
def test_batched_levels_three_way_parity(shape, data):
    """privacy_levels_batch == per-mask scalar == reference levels."""
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    names = list(module.attribute_names)
    n_bits = len(names)
    masks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n_bits) - 1),
            min_size=1,
            max_size=1 << n_bits,
        )
    )
    batched_compiled = CompiledModule(module)
    batched_levels = batched_compiled.privacy_levels_batch(masks)
    with sweep_batching(False):
        scalar_levels = CompiledModule(module).privacy_levels_batch(masks)
    assert batched_levels == scalar_levels
    layout = batched_compiled.layout
    for mask, level in zip(masks, batched_levels):
        visible = {
            name for name in names if mask & layout.field_masks[name]
        }
        assert level == standalone_privacy_level(
            module, visible, backend="reference"
        )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=3),
)
def test_wide_layout_batch_falls_back_to_scalar(seed, gamma):
    """>63-bit layouts cannot use numpy; the batch API must still agree."""
    module = random_boolean_module(seed, 2, 62, name="wide", prefix="w")
    compiled = CompiledModule(module)
    assert compiled.layout.total_bits > 63
    assert compiled.packed.array is None
    hidable = list(module.attribute_names)[:4]
    with sweep_batching(True):
        kernel_safe = compiled.enumerate_safe_hidden_subsets(
            gamma, hidable=hidable
        )
    assert compiled.sweep_stats["batched_passes"] == 0, (
        "wide layout must take the pure-int scalar path"
    )
    assert kernel_safe == enumerate_safe_hidden_subsets(
        module, gamma, hidable=hidable, backend="reference"
    )


@settings(max_examples=15, deadline=None)
@given(module_shapes)
def test_small_relations_take_scalar_path(shape):
    """Relations below NUMPY_MIN_ROWS never pay a vectorized pass."""
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    compiled = CompiledModule(module)
    assert len(compiled.packed.codes) < NUMPY_MIN_ROWS
    assert not compiled.packed.use_numpy
    n_bits = len(list(module.attribute_names))
    compiled.privacy_levels_batch(list(range(1 << n_bits)))
    assert compiled.sweep_stats["batched_passes"] == 0
    assert compiled.sweep_stats["batched_masks"] == 0
    assert compiled.sweep_stats["scalar_masks"] == 1 << n_bits


@settings(max_examples=15, deadline=None)
@given(module_shapes)
def test_interleaved_scalar_batched_share_memo(shape):
    """Scalar and batched calls fill one `_level_cache`; payloads agree."""
    seed, n_in, n_out = shape
    module = random_boolean_module(seed, n_in, n_out)
    n_bits = len(list(module.attribute_names))
    all_masks = list(range(1 << n_bits))

    interleaved = CompiledModule(module)
    for mask in all_masks[::2]:
        interleaved.privacy_level_bits(mask)
    seeded = dict(interleaved._level_cache)
    interleaved.privacy_levels_batch(all_masks)
    for mask, level in seeded.items():
        assert interleaved._level_cache[mask] == level

    scalar_only = CompiledModule(module)
    with sweep_batching(False):
        scalar_only.privacy_levels_batch(all_masks)
    assert interleaved.to_payload() == scalar_only.to_payload()


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=4),
)
def test_numpy_sized_module_three_way_parity(seed, gamma):
    """On a relation big enough for the vectorized path, all three agree."""
    module = random_boolean_module(seed, 8, 1, name="big", prefix="n")
    masks = list(range(1 << 9))
    batched_compiled = CompiledModule(module)
    batched_levels = batched_compiled.privacy_levels_batch(masks)
    if HAVE_NUMPY:
        assert batched_compiled.packed.use_numpy
        assert batched_compiled.sweep_stats["batched_passes"] >= 1
        assert batched_compiled.sweep_stats["batched_masks"] == len(masks)
    else:
        assert batched_compiled.sweep_stats["batched_passes"] == 0
    with sweep_batching(False):
        scalar_compiled = CompiledModule(module)
        scalar_levels = scalar_compiled.privacy_levels_batch(masks)
    assert batched_levels == scalar_levels
    assert scalar_compiled.sweep_stats["scalar_masks"] == len(masks)
    layout = batched_compiled.layout
    names = list(module.attribute_names)
    for mask in (0, 1, (1 << 9) - 1, 0b101010101):
        visible = {
            name for name in names if mask & layout.field_masks[name]
        }
        assert batched_levels[masks.index(mask)] == standalone_privacy_level(
            module, visible, backend="reference"
        )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=4),
)
def test_cardinality_frontier_matches_brute_force(seed, gamma):
    """The monotone-frontier (alpha, beta) scan equals the full double loop.

    ``safe_cardinality_pairs`` exploits that safety is upward-closed in
    beta with a non-increasing frontier in alpha; this checks the pruned
    scan against an exhaustive per-pair evaluation on the same kernel.
    """
    module = random_boolean_module(seed, 2, 3)
    compiled = CompiledModule(module)
    pairs = compiled.safe_cardinality_pairs(gamma)
    in_masks = [compiled.layout.field_masks[n] for n in module.input_names]
    out_masks = [compiled.layout.field_masks[n] for n in module.output_names]
    n_out = len(out_masks)
    brute = [
        (alpha, beta)
        for alpha in range(len(in_masks) + 1)
        for beta in range(n_out + 1)
        if compiled._all_hidden_choices_safe(in_masks, out_masks, alpha, beta, gamma)
    ]
    assert pairs == brute
    # Upward closure in beta: each alpha's safe betas form a suffix.
    by_alpha: dict[int, list[int]] = {}
    for alpha, beta in pairs:
        by_alpha.setdefault(alpha, []).append(beta)
    for alpha, betas in by_alpha.items():
        assert betas == list(range(betas[0], n_out + 1))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=3),
    st.data(),
)
def test_workflow_privacy_verdicts_agree(seed, gamma, data):
    workflow = random_two_module_chain(seed)
    names = list(workflow.attribute_names)
    visible = set(
        data.draw(
            st.lists(st.sampled_from(names), max_size=len(names), unique=True)
        )
    )
    assert is_gamma_private_workflow(
        workflow, visible, gamma, backend="kernel"
    ) == is_gamma_private_workflow(workflow, visible, gamma, backend="reference")


# ---------------------------------------------------------------------------
# Levelwise minimal safe subsets and their upward closure
# ---------------------------------------------------------------------------


def random_quaternary_module(seed: int, n_outputs: int) -> Module:
    """Four 4-valued inputs: 256 rows (numpy-eligible), few attributes."""
    rng = random.Random(seed)
    inputs = [Attribute(f"q{k}", integer_domain(4)) for k in range(4)]
    output_names = [f"p{k}" for k in range(n_outputs)]
    table = {
        key: tuple(rng.randint(0, 1) for _ in output_names)
        for key in itertools.product(range(4), repeat=len(inputs))
    }

    def function(values):
        key = tuple(values[attribute.name] for attribute in inputs)
        return dict(zip(output_names, table[key]))

    return Module("quad", inputs, boolean_attributes(output_names), function)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        module_shapes.map(lambda shape: random_boolean_module(*shape)),
        st.builds(
            random_quaternary_module,
            st.integers(min_value=0, max_value=2**31 - 1),
            st.integers(min_value=1, max_value=2),
        ),
    ),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_levelwise_subsets_match_reference(module, gamma, data):
    """Minimal and enumerated lists equal the reference's, order included.

    ``hidable`` may repeat names and name attributes outside the layout
    (attribute mask 0); the reference keeps repeats in its enumeration and
    lists each minimal set once.
    """
    names = list(module.attribute_names)
    hidable = None
    if data.draw(st.booleans(), label="explicit hidable"):
        drawn = names + data.draw(st.lists(st.sampled_from(names), max_size=2))
        drawn += data.draw(
            st.lists(st.sampled_from(["zz", "yy"]), max_size=2, unique=True)
        )
        hidable = data.draw(st.permutations(drawn), label="hidable")
    compiled = CompiledModule(module)
    if module.name == "quad":
        assert len(compiled.packed) >= NUMPY_MIN_ROWS
    assert compiled.minimal_safe_hidden_subsets(gamma, hidable=hidable) == (
        minimal_safe_hidden_subsets(
            module, gamma, hidable=hidable, backend="reference"
        )
    )
    assert compiled.enumerate_safe_hidden_subsets(gamma, hidable=hidable) == (
        enumerate_safe_hidden_subsets(
            module, gamma, hidable=hidable, backend="reference"
        )
    )
