"""Bit-compiled privacy kernel.

This package is the compilation layer behind the core privacy analysis: it
packs module and workflow relations into integer bitmask tables once
(:mod:`~repro.kernel.packing`), then answers OUT-set counting, Γ-privacy
checks, minimal-safe-subset search and possible-worlds out-set enumeration
as word-parallel bit operations (:mod:`~repro.kernel.module_kernel`,
:mod:`~repro.kernel.workflow_kernel`).  The brute-force enumerators in
:mod:`repro.core` remain available behind ``backend="reference"`` and are
the oracle the kernel is property-tested against.

Compilation is memoized: :func:`compile_module` / :func:`compile_workflow`
return the same compiled object for the same (module, relation) pair, so a
solver sweep or a planner re-verifying several solutions packs each
relation exactly once.  The memo is bounded (FIFO eviction) and pins the
source objects of live entries, so ``id()`` reuse can never alias a stale
entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from .backend import (
    KERNEL,
    REFERENCE,
    VALID_BACKENDS,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from .module_kernel import CompiledModule, batching_enabled, sweep_batching
from .packing import (
    BATCH_MEMORY_BUDGET,
    BATCH_MIN_MASKS,
    HAVE_NUMPY,
    BitLayout,
    PackedRelation,
)
from .workflow_kernel import CompiledWorkflow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.module import Module
    from ..core.relation import Relation
    from ..core.workflow import Workflow

__all__ = [
    "KERNEL",
    "REFERENCE",
    "VALID_BACKENDS",
    "HAVE_NUMPY",
    "BATCH_MEMORY_BUDGET",
    "BATCH_MIN_MASKS",
    "BitLayout",
    "PackedRelation",
    "CompiledModule",
    "CompiledWorkflow",
    "batching_enabled",
    "sweep_batching",
    "compile_module",
    "compile_workflow",
    "clear_compile_cache",
    "compile_cache_info",
    "get_default_backend",
    "set_default_backend",
    "resolve_backend",
]

#: Bounded compile memos.  Keys are ``(id(source), id(relation))``; every
#: live entry holds strong references to its sources (the compiled object
#: need not keep the relation it packed), so an id cannot be recycled while
#: its entry is alive.
_COMPILE_CACHE_LIMIT = 256
_modules: "OrderedDict[tuple[int, int], tuple]" = OrderedDict()
_workflows: "OrderedDict[tuple[int, int], tuple]" = OrderedDict()
_hits = 0
_misses = 0


def _memoize(cache: OrderedDict, sources: tuple, factory):
    global _hits, _misses
    key = (id(sources[0]), id(sources[1]))
    entry = cache.get(key)
    if entry is not None:
        _hits += 1
        cache.move_to_end(key)
        return entry[1]
    _misses += 1
    compiled = factory()
    cache[key] = (sources, compiled)
    while len(cache) > _COMPILE_CACHE_LIMIT:
        cache.popitem(last=False)
    return compiled


def compile_module(
    module: "Module", relation: "Relation | None" = None
) -> CompiledModule:
    """The compiled form of a module's (possibly restricted) relation."""
    return _memoize(
        _modules, (module, relation), lambda: CompiledModule(module, relation)
    )


def compile_workflow(
    workflow: "Workflow", relation: "Relation | None" = None
) -> CompiledWorkflow:
    """The compiled form of a workflow's provenance relation."""
    return _memoize(
        _workflows, (workflow, relation), lambda: CompiledWorkflow(workflow, relation)
    )


def clear_compile_cache() -> None:
    """Drop every memoized compilation (mainly for tests and benchmarks)."""
    global _hits, _misses
    _modules.clear()
    _workflows.clear()
    _hits = _misses = 0


def compile_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the compile memos."""
    return {
        "hits": _hits,
        "misses": _misses,
        "modules": len(_modules),
        "workflows": len(_workflows),
    }
