"""Unit tests for the compiled module/workflow kernels and the backend switch."""

from __future__ import annotations

import sys

import pytest

from repro.core import (
    Attribute,
    Module,
    Relation,
    boolean_attributes,
    standalone_privacy_level,
)
from repro.core.attributes import integer_domain
from repro.core.standalone import (
    enumerate_safe_hidden_subsets,
    minimal_safe_hidden_subsets,
)
from repro.exceptions import PrivacyError
from repro.kernel import (
    CompiledModule,
    compile_cache_info,
    compile_module,
    compile_workflow,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.workloads import figure1_m1_module, figure1_workflow


class TestBackendSwitch:
    def test_kernel_is_the_default(self):
        assert get_default_backend() == "kernel"
        assert resolve_backend(None) == "kernel"

    def test_resolve_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("turbo")

    def test_set_default_backend_round_trips(self):
        previous = set_default_backend("reference")
        try:
            assert previous == "kernel"
            assert resolve_backend(None) == "reference"
        finally:
            set_default_backend(previous)


class TestCompiledModule:
    def test_matches_reference_on_figure1(self):
        m1 = figure1_m1_module()
        compiled = compile_module(m1)
        for visible in (
            {"a1", "a3", "a5"},
            {"a3", "a4", "a5"},
            set(),
            set(m1.attribute_names),
        ):
            assert compiled.privacy_level(visible) == standalone_privacy_level(
                m1, visible, backend="reference"
            )

    def test_gamma_validation(self):
        compiled = compile_module(figure1_m1_module())
        with pytest.raises(PrivacyError):
            compiled.is_private({"a1"}, 0)
        with pytest.raises(PrivacyError):
            compiled.enumerate_safe_hidden_subsets(0)

    def test_minimal_subsets_form_an_antichain(self):
        compiled = compile_module(figure1_m1_module())
        minimal = compiled.minimal_safe_hidden_subsets(2)
        assert minimal == minimal_safe_hidden_subsets(
            figure1_m1_module(), 2, backend="reference"
        )
        for first in minimal:
            for second in minimal:
                assert first == second or not first <= second

    def test_restricted_relation_is_respected(self):
        m1 = figure1_m1_module()
        restricted = Relation(
            m1.schema,
            [row for row in m1.relation() if row["a1"] == 0],
            check_domains=False,
        )
        visible = {"a1", "a3"}
        assert compile_module(m1, restricted).privacy_level(
            visible
        ) == standalone_privacy_level(
            m1, visible, relation=restricted, backend="reference"
        )

    def test_empty_relation_reports_range_size(self):
        m1 = figure1_m1_module()
        empty = Relation(m1.schema, ())
        assert compile_module(m1, empty).privacy_level({"a1"}) == m1.range_size()

    def test_wide_schema_falls_back_to_python_ints(self):
        wide_in = [Attribute(f"x{i}", integer_domain(2**16)) for i in range(3)]
        wide_out = [Attribute("y", integer_domain(2**16))]

        def function(values):
            return {"y": (values["x0"] + values["x1"] + values["x2"]) % 7}

        module = Module("wide", wide_in, wide_out, function)
        rows = [
            {"x0": i, "x1": 2 * i, "x2": 3 * i, "y": (6 * i) % 7}
            for i in range(6)
        ]
        restricted = Relation(module.schema, rows, check_domains=False)
        compiled = CompiledModule(module, restricted)
        assert compiled.layout.total_bits == 64
        assert compiled.packed.array is None
        assert compiled.privacy_level({"x0", "y"}) == standalone_privacy_level(
            module, {"x0", "y"}, relation=restricted, backend="reference"
        )


class TestNumpyPath:
    def test_large_boolean_module_uses_numpy_and_agrees(self):
        names_in = [f"i{k}" for k in range(8)]

        def parity(values):
            return {"o0": sum(values[n] for n in names_in) & 1, "o1": values["i0"]}

        module = Module(
            "big",
            boolean_attributes(names_in),
            boolean_attributes(["o0", "o1"]),
            parity,
        )
        compiled = CompiledModule(module)
        if compiled.packed.array is not None:
            assert compiled.packed.use_numpy  # 256 rows, 10 bits
        for visible in ({"i0", "o0"}, {"i0", "i1", "o1"}, set(names_in)):
            assert compiled.privacy_level(visible) == standalone_privacy_level(
                module, visible, backend="reference"
            )


class TestBatchedSweep:
    """PR 8: privacy_levels_batch internals — tiling, memo, counters."""

    @staticmethod
    def _big_module(n_inputs: int = 8):
        names_in = [f"i{k}" for k in range(n_inputs)]

        def majority(values):
            total = sum(values[n] for n in names_in)
            return {"o0": int(total * 2 > n_inputs)}

        return Module(
            "batchy",
            boolean_attributes(names_in),
            boolean_attributes(["o0"]),
            majority,
        )

    def test_batch_toggle_round_trips(self):
        from repro.kernel import batching_enabled, sweep_batching

        assert batching_enabled()
        with sweep_batching(False):
            assert not batching_enabled()
            with sweep_batching(True):
                assert batching_enabled()
            assert not batching_enabled()
        assert batching_enabled()

    def test_batch_dedupes_and_reuses_memo(self):
        module = self._big_module()
        compiled = CompiledModule(module)
        if not compiled.packed.use_numpy:
            pytest.skip("numpy unavailable; the batch path is scalar-only")
        n_masks = 1 << 9
        warm = [3, 5, 3, 9, 12]
        warm_levels = compiled.privacy_levels_batch(warm)
        assert warm_levels[0] == warm_levels[2]
        # Duplicates collapse: only four distinct masks were computed.
        assert compiled.sweep_stats["batched_masks"] == 4
        passes_after_warm = compiled.sweep_stats["batched_passes"]
        levels = compiled.privacy_levels_batch(list(range(n_masks)))
        # The warm masks were served from the memo, not recomputed.
        assert compiled.sweep_stats["batched_masks"] == n_masks
        assert levels[3] == warm_levels[0]
        assert levels[5] == warm_levels[1]
        assert compiled.sweep_stats["batched_passes"] > passes_after_warm
        assert compiled.sweep_stats["scalar_masks"] == 0

    def test_memory_budget_controls_tiling(self, monkeypatch):
        from repro.kernel import module_kernel

        module = self._big_module()
        compiled = CompiledModule(module)
        if not compiled.packed.use_numpy:
            pytest.skip("numpy unavailable; the batch path is scalar-only")
        # A budget of one row's worth of masks forces one pass per mask.
        monkeypatch.setattr(module_kernel, "BATCH_MEMORY_BUDGET", 1)
        masks = list(range(64))
        tiled_levels = compiled.privacy_levels_batch(masks)
        assert compiled.sweep_stats["batched_passes"] == len(masks)
        monkeypatch.undo()
        roomy = CompiledModule(module)
        assert roomy.privacy_levels_batch(masks) == tiled_levels
        assert roomy.sweep_stats["batched_passes"] == 1

    def test_batch_matches_scalar_and_reference(self):
        from repro.kernel import sweep_batching

        module = self._big_module()
        masks = list(range(0, 1 << 9, 7))
        batched = CompiledModule(module)
        batched_levels = batched.privacy_levels_batch(masks)
        with sweep_batching(False):
            scalar = CompiledModule(module)
            scalar_levels = scalar.privacy_levels_batch(masks)
        assert batched_levels == scalar_levels
        assert scalar.sweep_stats["scalar_masks"] == len(masks)
        assert scalar.sweep_stats["batched_passes"] == 0
        layout = batched.layout
        names = list(module.attribute_names)
        for mask in (masks[0], masks[1], masks[-1]):
            visible = {n for n in names if mask & layout.field_masks[n]}
            assert batched_levels[masks.index(mask)] == (
                standalone_privacy_level(module, visible, backend="reference")
            )

    def test_sweep_evaluates_only_unsafe_and_minimal_sets(self):
        """Each evaluated mask is an unsafe set or a minimal safe one.

        With every attribute hidable, the count is ``2**n - |safe| +
        |minimal|``: the evaluated set never grows past the negative border
        plus the minimal sets, on the scalar path and the batched one.
        """
        for module, gamma in (
            (figure1_m1_module(), 2),
            (figure1_m1_module(), 4),
            (self._big_module(), 2),
        ):
            compiled = CompiledModule(module)
            compiled.minimal_safe_hidden_subsets(gamma)
            safe = enumerate_safe_hidden_subsets(
                module, gamma, backend="reference"
            )
            minimal = minimal_safe_hidden_subsets(
                module, gamma, backend="reference"
            )
            stats = compiled.sweep_stats
            n = len(module.attribute_names)
            assert stats["scalar_masks"] + stats["batched_masks"] == (
                2**n - len(safe) + len(minimal)
            )
            if compiled.packed.use_numpy:
                assert stats["batched_passes"] >= 1

    def test_empty_batch_is_a_no_op(self):
        compiled = CompiledModule(figure1_m1_module())
        assert compiled.privacy_levels_batch([]) == []
        assert compiled.sweep_stats == {
            "scalar_masks": 0,
            "batched_masks": 0,
            "batched_passes": 0,
        }

    def test_small_relation_stays_scalar(self):
        compiled = CompiledModule(figure1_m1_module())
        n_bits = compiled.layout.total_bits
        levels = compiled.privacy_levels_batch(list(range(1 << n_bits)))
        assert compiled.sweep_stats["batched_passes"] == 0
        assert compiled.sweep_stats["scalar_masks"] == 1 << n_bits
        assert levels == [
            compiled.privacy_level_bits(mask) for mask in range(1 << n_bits)
        ]


class TestCompileMemo:
    def test_compile_module_memoizes_by_identity(self):
        module = figure1_m1_module()
        assert compile_module(module) is compile_module(module)
        other = figure1_m1_module()
        assert compile_module(module) is not compile_module(other)

    def test_compile_workflow_memoizes_by_identity(self):
        workflow = figure1_workflow()
        assert compile_workflow(workflow) is compile_workflow(workflow)
        info = compile_cache_info()
        assert info["hits"] >= 1

    def test_restriction_gets_its_own_entry(self):
        module = figure1_m1_module()
        restricted = Relation(
            module.schema,
            [row for row in module.relation() if row["a1"] == 1],
            check_domains=False,
        )
        assert compile_module(module) is not compile_module(module, restricted)

    def test_memo_pins_the_relation_it_compiled(self):
        """Entries are keyed by ``id(relation)``; the compiled workflow does
        not keep its relation, so the memo must, or a recycled id could
        alias another relation's pack."""
        workflow = figure1_workflow()
        restricted = Relation(
            workflow.schema,
            [row for row in workflow.provenance_relation() if row["a1"] == 1],
            check_domains=False,
        )
        before = sys.getrefcount(restricted)
        compile_workflow(workflow, restricted)
        assert sys.getrefcount(restricted) > before


class TestCompiledWorkflow:
    def test_out_sets_match_reference(self, tiny_chain):
        from repro.core import workflow_out_sets

        visible = {"a0", "b0", "c0"}
        for name in tiny_chain.module_names:
            assert workflow_out_sets(
                tiny_chain, name, visible, backend="kernel"
            ) == workflow_out_sets(tiny_chain, name, visible, backend="reference")

    def test_work_limit_guard(self, tiny_chain):
        with pytest.raises(PrivacyError):
            compile_workflow(tiny_chain).module_out_sets(
                "first", {"a0"}, work_limit=2
            )
