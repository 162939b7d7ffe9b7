"""Possible-worlds semantics for provenance views.

The privacy definitions of the paper (Definitions 1, 4 and 6) are phrased in
terms of *possible worlds*: the relations an adversary cannot distinguish
from the true one after seeing only the visible attributes.  This module
provides exact, brute-force enumerators for small instances.  They are the
ground truth against which the fast counting-based privacy checks in
:mod:`repro.core.privacy` and the constructive flipping argument in
:mod:`repro.core.composition` are validated.

Two semantics are implemented:

* **standalone worlds** (Definition 1) for a single module, optionally
  restricted to worlds that are total functions on the module's domain
  (this is the convention under which Example 2 counts 64 worlds for
  ``m_1``), and
* **workflow worlds** (Definitions 4/6), enumerated as "one completion of
  the hidden attributes per visible tuple".  Restricting to one completion
  per visible tuple loses no generality for privacy: any witness tuple in
  any world survives in such a sub-world, so the OUT_x sets — and hence
  Γ-privacy — are unchanged.

Both enumerators are exponential by nature (the paper proves they have to
be); they guard against accidental blow-ups with explicit work limits.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

from ..exceptions import WorkLimitError
from .attributes import Value
from .module import Module
from .relation import Relation
from .workflow import Workflow

__all__ = [
    "count_standalone_worlds",
    "enumerate_standalone_worlds",
    "is_standalone_world",
    "enumerate_workflow_worlds",
    "is_workflow_world",
    "workflow_out_set",
    "workflow_out_sets",
    "check_world_work",
]

#: Default cap on the number of candidate worlds examined by brute force.
DEFAULT_WORK_LIMIT = 2_000_000


# ---------------------------------------------------------------------------
# Standalone worlds (Definition 1)
# ---------------------------------------------------------------------------

def _visible_parts(
    module: Module, visible: Iterable[str]
) -> tuple[list[str], list[str], list[str], list[str]]:
    vis = set(visible)
    vin = [name for name in module.input_names if name in vis]
    vout = [name for name in module.output_names if name in vis]
    hin = [name for name in module.input_names if name not in vis]
    hout = [name for name in module.output_names if name not in vis]
    return vin, vout, hin, hout


def count_standalone_worlds(module: Module, visible: Iterable[str]) -> int:
    """Number of total-function worlds in ``Worlds(R, V)`` for a module.

    A total-function world assigns an output tuple to *every* input in the
    module's domain such that the projection of its graph on ``V`` equals
    ``pi_V(R)``.  The count is computed group by visible-input value with an
    inclusion–exclusion over the visible output values that must be covered,
    so no worlds are materialized (Proposition 2 needs counts that are far
    too large to enumerate).
    """
    relation = module.relation()
    vin, vout, _hin, hout = _visible_parts(module, visible)
    hidden_out_size = 1
    for name in hout:
        hidden_out_size *= module.output_schema[name].domain.size

    # Group the module's domain by visible-input value.
    groups: dict[tuple[Value, ...], list[dict[str, Value]]] = {}
    for row in relation:
        key = tuple(row[name] for name in vin)
        groups.setdefault(key, []).append(row)

    total = 1
    for key, rows in groups.items():
        group_size = len(rows)
        visible_outputs = {tuple(row[name] for name in vout) for row in rows}
        s = len(visible_outputs)
        # Number of ways to assign each of the `group_size` inputs an output
        # whose visible part lies in the allowed set (each visible part has
        # `hidden_out_size` completions), covering every allowed visible part.
        ways = 0
        for j in range(s + 1):
            ways += (
                (-1) ** j
                * math.comb(s, j)
                * ((s - j) * hidden_out_size) ** group_size
            )
        total *= ways
    return total


def enumerate_standalone_worlds(
    module: Module,
    visible: Iterable[str],
    max_worlds: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> Iterator[Relation]:
    """Yield the total-function worlds ``Worlds(R, V)`` of a standalone module.

    Worlds are yielded as relations over the module schema with exactly one
    row per input assignment in the module's domain.  ``max_worlds`` limits
    how many worlds are yielded; ``work_limit`` bounds the number of
    candidate assignments considered and raises :class:`WorkLimitError` when
    exceeded (enumerating worlds is inherently exponential — see Theorem 3).
    """
    relation = module.relation()
    vin, vout, _hin, hout = _visible_parts(module, visible)
    schema = module.schema

    groups: dict[tuple[Value, ...], list[dict[str, Value]]] = {}
    for row in relation:
        key = tuple(row[name] for name in vin)
        groups.setdefault(key, []).append(row)

    hidden_out_assignments = list(module.output_schema.iter_assignments(hout))

    # For each group independently, enumerate assignments of full outputs to
    # the group's inputs that cover all required visible output values.
    def group_assignments(rows: list[dict[str, Value]]) -> list[list[dict[str, Value]]]:
        required = {tuple(row[name] for name in vout) for row in rows}
        choices: list[list[dict[str, Value]]] = []
        per_input_options: list[list[dict[str, Value]]] = []
        for row in rows:
            options = []
            for vis_out in required:
                for hidden in hidden_out_assignments:
                    out = dict(zip(vout, vis_out))
                    out.update(hidden)
                    full = {name: row[name] for name in module.input_names}
                    full.update(out)
                    options.append(full)
            per_input_options.append(options)
        for combo in itertools.product(*per_input_options):
            covered = {tuple(r[name] for name in vout) for r in combo}
            if covered == required:
                choices.append(list(combo))
        return choices

    per_group_choices = []
    work = 1
    for key, rows in groups.items():
        choices = group_assignments(rows)
        per_group_choices.append(choices)
        work *= max(len(choices), 1)
        if work > work_limit:
            raise WorkLimitError(
                f"standalone world enumeration exceeds work limit ({work} > "
                f"{work_limit}); use count_standalone_worlds instead"
            )

    produced = 0
    for combo in itertools.product(*per_group_choices):
        rows = [row for group in combo for row in group]
        yield Relation(schema, rows, check_domains=False)
        produced += 1
        if max_worlds is not None and produced >= max_worlds:
            return


def is_standalone_world(
    candidate: Relation, module: Module, visible: Iterable[str]
) -> bool:
    """Check membership of ``candidate`` in ``Worlds(R, V)`` (Definition 1).

    The candidate must be over the module's schema, satisfy the functional
    dependency ``I -> O`` and have the same projection on ``V`` as the
    module's relation.
    """
    if set(candidate.schema.names) != set(module.schema.names):
        return False
    if not candidate.satisfies_fd(module.input_names, module.output_names):
        return False
    visible_list = [name for name in module.schema.names if name in set(visible)]
    return candidate.project(visible_list) == module.relation().project(visible_list)


# ---------------------------------------------------------------------------
# Workflow worlds (Definitions 4 and 6)
# ---------------------------------------------------------------------------

def _world_constraints_ok(
    rows: Sequence[dict[str, Value]],
    workflow: Workflow,
    respected_public: Sequence[Module],
) -> bool:
    """Check FDs of all modules and functionality of visible public modules."""
    for module in workflow.modules:
        seen: dict[tuple[Value, ...], tuple[Value, ...]] = {}
        for row in rows:
            key = tuple(row[name] for name in module.input_names)
            val = tuple(row[name] for name in module.output_names)
            if seen.setdefault(key, val) != val:
                return False
    for module in respected_public:
        for row in rows:
            expected = module.apply(row)
            if any(row[name] != value for name, value in expected.items()):
                return False
    return True


def _work_limit_error(work: int, work_limit: int) -> WorkLimitError:
    return WorkLimitError(
        f"workflow world enumeration exceeds work limit ({work} > "
        f"{work_limit}); reduce the instance or raise work_limit"
    )


def check_world_work(
    workflow: Workflow,
    visible: Iterable[str],
    relation: Relation | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> None:
    """Raise :class:`WorkLimitError` when world enumeration must exceed
    ``work_limit``, judged from the schema alone.

    Enumeration places one of the ``H`` hidden assignments on each tuple
    of ``pi_V(R)``, so it does ``H ** |pi_V(R)|`` work.  ``R`` has one row
    per initial-input assignment, so ``pi_V(R)`` has at least ``V0``
    tuples, the product of the visible initial inputs' domain sizes, and
    ``H ** V0`` bounds the work from below before ``R`` is built or any
    hidden assignment listed.  A given ``relation`` may be any subset of
    ``R``, so then only a non-empty one's ``H`` counts.
    """
    schema = workflow.schema
    visible_set = set(visible)
    hidden = schema.assignment_count(
        [name for name in schema.names if name not in visible_set]
    )
    if hidden <= 1:
        return
    if relation is None:
        tuples = schema.assignment_count(
            [name for name in workflow.initial_inputs if name in visible_set]
        )
    else:
        tuples = min(len(relation), 1)
    work = 1
    for _ in range(tuples):  # at most log2(work_limit) + 1 rounds
        work *= hidden
        if work > work_limit:
            raise _work_limit_error(work, work_limit)


def enumerate_workflow_worlds(
    workflow: Workflow,
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    max_worlds: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> Iterator[Relation]:
    """Yield worlds of the workflow relation w.r.t. ``V`` (Definitions 4/6).

    Worlds are represented with exactly one row per distinct visible tuple of
    ``pi_V(R)``; as argued in the module docstring this preserves the OUT_x
    sets and therefore Γ-privacy.  Public modules whose name is *not* in
    ``hidden_public_modules`` must behave according to their known
    functionality in every world (condition (2) of Definition 6).
    """
    visible_set = set(visible)
    schema = workflow.schema
    hidden = [name for name in schema.names if name not in visible_set]
    visible_list = [name for name in schema.names if name in visible_set]
    base = relation if relation is not None else workflow.provenance_relation()
    view = base.project(visible_list)

    hidden_count = schema.assignment_count(hidden)
    work = 1
    for _ in view:
        work *= hidden_count
        if work > work_limit:
            raise _work_limit_error(work, work_limit)
    hidden_assignments = list(schema.iter_assignments(hidden))
    respected_public = [
        module
        for module in workflow.public_modules
        if module.name not in set(hidden_public_modules)
    ]

    # Pre-compute, for each visible tuple, the candidate full rows.
    candidates_per_tuple = [
        [{**vis_row, **assignment} for assignment in hidden_assignments]
        for vis_row in view
    ]

    produced = 0
    for combo in itertools.product(*candidates_per_tuple):
        rows = list(combo)
        if not _world_constraints_ok(rows, workflow, respected_public):
            continue
        yield Relation(schema, rows, check_domains=False)
        produced += 1
        if max_worlds is not None and produced >= max_worlds:
            return


def is_workflow_world(
    candidate: Relation,
    workflow: Workflow,
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
) -> bool:
    """Check membership of ``candidate`` in ``Worlds(R, V, P)`` (Definition 6)."""
    schema = workflow.schema
    if set(candidate.schema.names) != set(schema.names):
        return False
    visible_set = set(visible)
    visible_list = [name for name in schema.names if name in visible_set]
    base = relation if relation is not None else workflow.provenance_relation()
    if candidate.project(visible_list) != base.project(visible_list):
        return False
    respected_public = [
        module
        for module in workflow.public_modules
        if module.name not in set(hidden_public_modules)
    ]
    rows = list(candidate)
    return _world_constraints_ok(rows, workflow, respected_public)


def workflow_out_sets(
    workflow: Workflow,
    module_name: str,
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    stop_at: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
    backend: str | None = None,
) -> dict[tuple[Value, ...], set[tuple[Value, ...]]]:
    """``OUT_{x,W}`` (Definition 5/6) for every input ``x ∈ pi_{I_i}(R)``.

    Definition 5 is universally quantified over the tuples of a world: ``y``
    is a candidate output for ``x`` if some world maps ``x`` *only* to ``y``
    — which is vacuously true for worlds in which ``x`` does not occur at
    all.  Concretely, per world: if ``x`` occurs, the world contributes the
    single output it assigns to ``x`` (single by the FD ``I_i -> O_i``);
    if ``x`` does not occur, the world contributes *every* output tuple in
    the module's range.

    All inputs are processed in one pass over the worlds.  ``stop_at``
    terminates early once every input has at least that many candidate
    outputs (pass ``stop_at = Γ`` for a yes/no privacy check).

    With ``backend="kernel"`` (the default) the same enumeration runs on
    bit-packed rows with incremental constraint pruning (see
    :class:`repro.kernel.CompiledWorkflow`); ``backend="reference"`` keeps
    this module's brute-force world enumeration as the validation oracle.
    Both first apply :func:`check_world_work`, so an enumeration that must
    exceed ``work_limit`` raises :class:`WorkLimitError` before ``R`` is
    built.
    """
    from ..kernel import compile_workflow, resolve_backend

    visible = frozenset(visible)
    check_world_work(workflow, visible, relation, work_limit)
    if resolve_backend(backend) == "kernel":
        return compile_workflow(workflow, relation).module_out_sets(
            module_name,
            visible,
            hidden_public_modules=hidden_public_modules,
            stop_at=stop_at,
            work_limit=work_limit,
        )
    module = workflow.module(module_name)
    base = relation if relation is not None else workflow.provenance_relation()
    input_keys = {
        tuple(row[name] for name in module.input_names)
        for row in base.project(module.input_names)
    }
    all_outputs = {
        tuple(assignment[name] for name in module.output_names)
        for assignment in module.output_schema.iter_assignments()
    }
    outputs: dict[tuple[Value, ...], set[tuple[Value, ...]]] = {
        key: set() for key in input_keys
    }

    def saturated() -> bool:
        if stop_at is None:
            return all(len(out) >= len(all_outputs) for out in outputs.values())
        return all(len(out) >= stop_at for out in outputs.values())

    for world in enumerate_workflow_worlds(
        workflow,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=base,
        work_limit=work_limit,
    ):
        per_input: dict[tuple[Value, ...], tuple[Value, ...]] = {}
        for row in world:
            row_key = tuple(row[name] for name in module.input_names)
            if row_key in outputs:
                per_input[row_key] = tuple(
                    row[name] for name in module.output_names
                )
        for key in input_keys:
            if key in per_input:
                outputs[key].add(per_input[key])
            else:
                # The world never exercises this input, so it is consistent
                # with any output value (the vacuous case of Definition 5).
                outputs[key] |= all_outputs
        if saturated():
            break
    return outputs


def workflow_out_set(
    workflow: Workflow,
    module_name: str,
    x: Mapping[str, Value],
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
    stop_at: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
    backend: str | None = None,
) -> set[tuple[Value, ...]]:
    """``OUT_{x,W}`` of Definition 5/6 for one input ``x`` of a module.

    Convenience wrapper around :func:`workflow_out_sets`; see there for the
    exact semantics (including the vacuous-world case).
    """
    module = workflow.module(module_name)
    key = tuple(x[name] for name in module.input_names)
    sets = workflow_out_sets(
        workflow,
        module_name,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=relation,
        stop_at=None if stop_at is None else stop_at,
        work_limit=work_limit,
        backend=backend,
    )
    return sets.get(key, set())
