"""Γ-privacy checks for standalone modules and workflows.

Two layers are provided:

* a fast, exact **standalone** check based on the counting condition of
  Appendix A.4: for a visible subset ``V``, a module is Γ-standalone-private
  iff for every visible-input value the executions sharing that visible
  input exhibit at least ``Γ / prod_{a in O\\V} |Δ_a|`` distinct visible
  output values.  Equivalently ``|OUT_x| = D_x * prod_{a in O\\V} |Δ_a|``
  where ``D_x`` is that distinct count; this is what
  :func:`standalone_out_counts` returns.
* an exact but exponential **workflow** check (Definitions 5/6) via
  possible-worlds enumeration.  It is intended for small instances and for
  validating the composition theorems (Theorems 4 and 8) empirically.

Every check accepts a ``backend`` argument: ``"kernel"`` (the default, see
:mod:`repro.kernel`) evaluates the same conditions on bit-packed relations;
``"reference"`` keeps the original per-tuple implementations as the
validation oracle.  The two backends are property-tested to agree.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..exceptions import PrivacyError
from .attributes import Value
from .module import Module
from .possible_worlds import workflow_out_sets
from .relation import Relation
from .workflow import Workflow

__all__ = [
    "hidden_output_completions",
    "standalone_out_counts",
    "standalone_out_set",
    "standalone_privacy_level",
    "is_standalone_private",
    "workflow_privacy_level",
    "is_workflow_private",
    "is_gamma_private_workflow",
]


# ---------------------------------------------------------------------------
# Standalone privacy (Definition 2, Appendix A.4)
# ---------------------------------------------------------------------------

def hidden_output_completions(module: Module, visible: Iterable[str]) -> int:
    """``prod_{a in O \\ V} |Δ_a|``: completions of the hidden output attributes."""
    visible_set = set(visible)
    size = 1
    for name in module.output_names:
        if name not in visible_set:
            size *= module.output_schema[name].domain.size
    return size


def standalone_out_counts(
    module: Module,
    visible: Iterable[str],
    relation: Relation | None = None,
    backend: str | None = None,
) -> dict[tuple[Value, ...], int]:
    """``|OUT_x|`` for every visible-input value of the module.

    The returned dict maps each distinct *visible input* value (a tuple in
    the order of the module's visible input attributes) to the size of the
    OUT set of any input ``x`` with that visible part.  The relation
    defaults to the module's full standalone relation but can be restricted
    (e.g. to the executions actually occurring inside a workflow).
    """
    from ..kernel import compile_module, resolve_backend

    if resolve_backend(backend) == "kernel":
        return compile_module(module, relation).out_counts(visible)
    rel = relation if relation is not None else module.relation()
    visible_set = set(visible)
    vin = [name for name in module.input_names if name in visible_set]
    vout = [name for name in module.output_names if name in visible_set]
    completions = hidden_output_completions(module, visible_set)

    groups: dict[tuple[Value, ...], set[tuple[Value, ...]]] = {}
    for row in rel:
        key = tuple(row[name] for name in vin)
        out_key = tuple(row[name] for name in vout)
        groups.setdefault(key, set()).add(out_key)
    return {key: len(outs) * completions for key, outs in groups.items()}


def standalone_out_set(
    module: Module,
    x: Mapping[str, Value],
    visible: Iterable[str],
    relation: Relation | None = None,
) -> set[tuple[Value, ...]]:
    """The explicit set ``OUT_{x,m}`` of candidate outputs for input ``x``.

    Follows Lemma 2: ``y`` is a candidate output iff some execution shares
    ``x``'s visible input values and ``y``'s visible output values; the
    hidden output attributes are then free.
    """
    rel = relation if relation is not None else module.relation()
    visible_set = set(visible)
    vin = [name for name in module.input_names if name in visible_set]
    vout = [name for name in module.output_names if name in visible_set]
    hout = [name for name in module.output_names if name not in visible_set]
    key = tuple(x[name] for name in vin)

    visible_out_values = {
        tuple(row[name] for name in vout)
        for row in rel
        if tuple(row[name] for name in vin) == key
    }
    outputs: set[tuple[Value, ...]] = set()
    for vis_out in visible_out_values:
        for hidden in module.output_schema.iter_assignments(hout):
            full = dict(zip(vout, vis_out))
            full.update(hidden)
            outputs.add(tuple(full[name] for name in module.output_names))
    return outputs


def standalone_privacy_level(
    module: Module,
    visible: Iterable[str],
    relation: Relation | None = None,
    backend: str | None = None,
) -> int:
    """The largest Γ for which the module is Γ-standalone-private w.r.t. ``V``.

    This is ``min_x |OUT_x|``; a module with an empty relation is vacuously
    private at any level and reported as its range size.
    """
    from ..kernel import compile_module, resolve_backend

    if resolve_backend(backend) == "kernel":
        return compile_module(module, relation).privacy_level(visible)
    counts = standalone_out_counts(
        module, visible, relation=relation, backend="reference"
    )
    if not counts:
        return module.range_size()
    return min(counts.values())


def is_standalone_private(
    module: Module,
    visible: Iterable[str],
    gamma: int,
    relation: Relation | None = None,
    backend: str | None = None,
) -> bool:
    """Definition 2: is ``V`` a safe subset for the module and Γ?"""
    if gamma < 1:
        raise PrivacyError("the privacy requirement Γ must be at least 1")
    return (
        standalone_privacy_level(module, visible, relation=relation, backend=backend)
        >= gamma
    )


# ---------------------------------------------------------------------------
# Workflow privacy (Definitions 4, 5 and 6)
# ---------------------------------------------------------------------------

def workflow_privacy_level(
    workflow: Workflow,
    module_name: str,
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    stop_at: int | None = None,
    work_limit: int | None = None,
    backend: str | None = None,
) -> int:
    """``min_x |OUT_{x,W}|`` for one module of the workflow.

    This is an exact, exponential computation via possible-worlds
    enumeration; ``stop_at`` short-circuits each OUT computation once enough
    distinct outputs have been found (pass ``stop_at=Γ`` when only a yes/no
    answer is needed).  An enumeration that would exceed ``work_limit``
    raises :class:`~repro.exceptions.WorkLimitError`, before ``R`` is built
    when the schema alone shows it (see
    :func:`~repro.core.possible_worlds.check_world_work`).
    """
    kwargs: dict = {}
    if work_limit is not None:
        kwargs["work_limit"] = work_limit
    out_sets = workflow_out_sets(
        workflow,
        module_name,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=relation,
        stop_at=stop_at,
        backend=backend,
        **kwargs,
    )
    if not out_sets:
        return workflow.module(module_name).range_size()
    return min(len(out) for out in out_sets.values())


def is_workflow_private(
    workflow: Workflow,
    module_name: str,
    visible: Iterable[str],
    gamma: int,
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    work_limit: int | None = None,
    backend: str | None = None,
) -> bool:
    """Definition 5/6: is one module Γ-workflow-private w.r.t. ``V`` (and P)?"""
    if gamma < 1:
        raise PrivacyError("the privacy requirement Γ must be at least 1")
    level = workflow_privacy_level(
        workflow,
        module_name,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=relation,
        stop_at=gamma,
        work_limit=work_limit,
        backend=backend,
    )
    return level >= gamma


def is_gamma_private_workflow(
    workflow: Workflow,
    visible: Iterable[str],
    gamma: int,
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    work_limit: int | None = None,
    backend: str | None = None,
) -> bool:
    """Is the whole workflow Γ-private (every private module private)?

    Public modules carry no privacy requirement (their behaviour is already
    known); privatized public modules likewise need no guarantee in the
    paper's formulation — privatization is only a tool to protect private
    modules.
    """
    for module in workflow.private_modules:
        if not is_workflow_private(
            workflow,
            module.name,
            visible,
            gamma,
            hidden_public_modules=hidden_public_modules,
            relation=relation,
            work_limit=work_limit,
            backend=backend,
        ):
            return False
    return True
