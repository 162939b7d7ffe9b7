"""Compiled possible-worlds kernel for workflow out-set enumeration.

The reference enumerator in :mod:`repro.core.possible_worlds` materializes
every candidate world as a list of row dicts, then filters by the modules'
functional dependencies and the known functionality of visible public
modules.  A :class:`CompiledWorkflow` runs the *same* semantics ("one
completion of the hidden attributes per visible tuple", Definitions 4–6)
on packed integer rows:

* a candidate row is ``visible_code | hidden_code`` — one OR,
* an FD check is two AND-masks and a dict probe,
* known public functionality is a precompiled ``input_code -> output_code``
  table lookup,

and the enumeration is a depth-first search that places one row per
visible tuple, checking constraints *incrementally* so dead branches are
abandoned at the first conflicting row instead of after building a full
candidate world.  The DFS visits the surviving worlds in exactly the order
the reference's ``itertools.product``-then-filter pass yields them, so
early-termination behaviour (``stop_at``) matches the reference path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..exceptions import PrivacyError
from .packing import BitLayout, PackedRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.attributes import Value
    from ..core.relation import Relation
    from ..core.workflow import Workflow

__all__ = ["CompiledWorkflow"]


def _default_work_limit() -> int:
    """:data:`repro.core.possible_worlds.DEFAULT_WORK_LIMIT`, read lazily.

    Imported at call time (not module import time) so the kernel stays
    importable from the core hot paths without a circular import, while the
    two backends can never drift apart on the default cap.
    """
    from ..core.possible_worlds import DEFAULT_WORK_LIMIT

    return DEFAULT_WORK_LIMIT


class CompiledWorkflow:
    """Bit-compiled form of a workflow's provenance relation."""

    __slots__ = ("workflow", "layout", "packed", "_module_bits", "_public_tables")

    def __init__(
        self, workflow: "Workflow", relation: "Relation | None" = None
    ) -> None:
        self.workflow = workflow
        if relation is None:
            relation = workflow.provenance_relation()
        self.layout = BitLayout(workflow.schema)
        self.packed = PackedRelation.from_relation(relation, self.layout)
        self._module_bits: dict[str, tuple[int, int]] = {
            module.name: (
                self.layout.mask_for(module.input_names),
                self.layout.mask_for(module.output_names),
            )
            for module in workflow.modules
        }
        self._public_tables: dict[str, dict[int, int]] = {}

    # -- precompiled public functionality --------------------------------------
    def _public_table(self, module_name: str) -> dict[int, int]:
        """``input_code -> output_code`` over a public module's full domain."""
        cached = self._public_tables.get(module_name)
        if cached is not None:
            return cached
        module = self.workflow.module(module_name)
        in_bits, out_bits = self._module_bits[module_name]
        pack = self.layout.pack_assignment
        names = module.attribute_names
        table: dict[int, int] = {}
        for row in module.relation():
            code = pack(row, names)
            table[code & in_bits] = code & out_bits
        cached = table
        self._public_tables[module_name] = table
        return table

    # -- out-set enumeration ----------------------------------------------------
    def module_out_sets(
        self,
        module_name: str,
        visible: Iterable[str],
        hidden_public_modules: Iterable[str] = (),
        stop_at: int | None = None,
        work_limit: int | None = None,
    ) -> dict[tuple["Value", ...], set[tuple["Value", ...]]]:
        """``OUT_{x,W}`` for every input of one module (Definitions 5/6).

        Semantics match :func:`repro.core.possible_worlds.workflow_out_sets`
        exactly, including the vacuous-world case (a world not exercising an
        input contributes the module's whole range) and the ``stop_at``
        early termination.
        """
        if work_limit is None:
            work_limit = _default_work_limit()
        workflow = self.workflow
        module = workflow.module(module_name)
        schema_names = workflow.schema.names
        visible_set = set(visible)
        hidden_names = [name for name in schema_names if name not in visible_set]
        vis_bits = self.layout.mask_for(visible_set)

        codes = self.packed.codes
        view: list[int] = []
        seen: set[int] = set()
        for code in codes:
            masked = code & vis_bits
            if masked not in seen:
                seen.add(masked)
                view.append(masked)

        hidden_codes = self.layout.assignment_codes(hidden_names)
        work = 1
        for _ in view:
            work *= max(len(hidden_codes), 1)
            if work > work_limit:
                raise PrivacyError(
                    f"workflow world enumeration exceeds work limit ({work} > "
                    f"{work_limit}); reduce the instance or raise work_limit"
                )

        in_bits, out_bits = self._module_bits[module_name]
        input_keys = {code & in_bits for code in codes}
        all_out_codes = set(self.layout.assignment_codes(module.output_names))
        outputs: dict[int, set[int]] = {key: set() for key in input_keys}
        full_range = len(all_out_codes)

        hidden_public = set(hidden_public_modules)
        respected = [
            (self._module_bits[m.name], self._public_table(m.name))
            for m in workflow.public_modules
            if m.name not in hidden_public
        ]
        fd_bits = [self._module_bits[m.name] for m in workflow.modules]
        fd_maps: list[dict[int, int]] = [{} for _ in fd_bits]

        def saturated() -> bool:
            if stop_at is None:
                return all(len(outs) >= full_range for outs in outputs.values())
            return all(len(outs) >= stop_at for outs in outputs.values())

        n_positions = len(view)
        chosen = [0] * n_positions
        stop = False

        def emit() -> None:
            nonlocal stop
            per_input: dict[int, int] = {}
            for row in chosen:
                key = row & in_bits
                if key in outputs:
                    per_input[key] = row & out_bits
            for key in input_keys:
                assigned = per_input.get(key)
                if assigned is not None:
                    outputs[key].add(assigned)
                else:
                    # The world never exercises this input, so it is
                    # consistent with any output (Definition 5's vacuous case).
                    outputs[key] |= all_out_codes
            if saturated():
                stop = True

        def place(row: int) -> list[tuple[int, int]] | None:
            """Add one row to the FD maps; ``None`` on conflict."""
            for (key_bits, val_bits), table in respected:
                if table[row & key_bits] != row & val_bits:
                    return None
            added: list[tuple[int, int]] = []
            for index, (key_bits, val_bits) in enumerate(fd_bits):
                key = row & key_bits
                value = row & val_bits
                existing = fd_maps[index].get(key)
                if existing is None:
                    fd_maps[index][key] = value
                    added.append((index, key))
                elif existing != value:
                    for undo_index, undo_key in added:
                        del fd_maps[undo_index][undo_key]
                    return None
            return added

        def search(position: int) -> None:
            nonlocal stop
            if position == n_positions:
                emit()
                return
            base = view[position]
            for hidden_code in hidden_codes:
                row = base | hidden_code
                added = place(row)
                if added is None:
                    continue
                chosen[position] = row
                search(position + 1)
                for undo_index, undo_key in added:
                    del fd_maps[undo_index][undo_key]
                if stop:
                    return

        search(0)

        unpack = self.layout.unpack
        input_names = module.input_names
        output_names = module.output_names
        out_tuples = {code: unpack(code, output_names) for code in all_out_codes}
        return {
            unpack(key, input_names): {out_tuples[code] for code in outs}
            for key, outs in outputs.items()
        }
