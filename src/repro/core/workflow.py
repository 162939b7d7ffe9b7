"""Workflows: DAGs of modules and their provenance relations.

A workflow ``W`` (Section 2.3) consists of modules ``m_1 ... m_n`` connected
in a directed acyclic multigraph.  The wiring is expressed purely through
attribute names:

1. for each module, input and output attribute names are disjoint,
2. output attribute names of distinct modules are disjoint (each data item
   is produced by a unique module),
3. whenever an output of ``m_i`` is fed to ``m_j``, the corresponding output
   and input attributes share the same name.

Executions of ``W`` form the *provenance relation* ``R`` over
``A = ∪_i (I_i ∪ O_i)``, satisfying every functional dependency
``I_i -> O_i``.  This module builds the DAG (on top of :mod:`networkx`),
validates the wiring rules, executes workflows, materializes provenance
relations, and computes the data-sharing degree γ of Definition 3.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

import networkx as nx

from ..exceptions import CycleError, SchemaError, WiringError, WorkflowError
from .attributes import Attribute, Schema, Value
from .module import Module
from .relation import Relation

__all__ = ["Workflow"]


class Workflow:
    """A DAG of modules with a joint provenance relation.

    Parameters
    ----------
    modules:
        The modules of the workflow.  Module names must be unique.
    name:
        Optional workflow name used in reports.
    """

    def __init__(self, modules: Iterable[Module], name: str = "workflow") -> None:
        self.name = name
        self._modules: dict[str, Module] = {}
        for module in modules:
            if module.name in self._modules:
                raise WorkflowError(f"duplicate module name {module.name!r}")
            self._modules[module.name] = module
        if not self._modules:
            raise WorkflowError("a workflow needs at least one module")
        self._validate_wiring()
        self._graph = self._build_graph()
        self._check_acyclic()
        self._order = tuple(nx.topological_sort(self._graph))
        # Fixed from here on: the modules, and so their privacy flags.
        self._in_order = tuple(self._modules[name] for name in self._order)
        self._private = tuple(m for m in self._in_order if m.private)
        self._public = tuple(m for m in self._in_order if m.public)
        self._schema = self._build_schema()
        self._data_sharing_degree = self._count_data_sharing()
        self._relation_cache: Relation | None = None

    # -- construction & validation --------------------------------------------
    def _validate_wiring(self) -> None:
        producers: dict[str, str] = {}
        attr_decl: dict[str, Attribute] = {}
        for module in self._modules.values():
            for attr in module.output_schema:
                if attr.name in producers:
                    raise WiringError(
                        f"attribute {attr.name!r} is produced by both "
                        f"{producers[attr.name]!r} and {module.name!r}"
                    )
                producers[attr.name] = module.name
            for attr in list(module.input_schema) + list(module.output_schema):
                declared = attr_decl.get(attr.name)
                if declared is None:
                    attr_decl[attr.name] = attr
                elif declared != attr:
                    raise WiringError(
                        f"attribute {attr.name!r} declared with different "
                        "domain or cost by different modules"
                    )
        self._producers = producers
        self._attr_decl = attr_decl

    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(self._modules)
        for module in self._modules.values():
            for name in module.input_names:
                producer = self._producers.get(name)
                if producer is not None and producer != module.name:
                    graph.add_edge(producer, module.name, attribute=name)
        return graph

    def _check_acyclic(self) -> None:
        if not nx.is_directed_acyclic_graph(self._graph):
            cycle = nx.find_cycle(self._graph)
            raise CycleError(f"workflow module graph has a cycle: {cycle}")

    def _build_schema(self) -> Schema:
        schema = Schema(())
        for name in self._order:
            schema = schema.union(self._modules[name].schema)
        return schema

    def _count_data_sharing(self) -> int:
        """γ of Definition 3, in one pass over the module inputs."""
        consumers = Counter(
            name for module in self._modules.values() for name in module.input_names
        )
        return max(consumers.values(), default=0)

    # -- basic accessors --------------------------------------------------------
    @property
    def modules(self) -> tuple[Module, ...]:
        """Modules in topological order."""
        return self._in_order

    @property
    def module_names(self) -> tuple[str, ...]:
        return self._order

    def module(self, name: str) -> Module:
        try:
            return self._modules[name]
        except KeyError as exc:
            raise WorkflowError(f"unknown module {name!r}") from exc

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    @property
    def graph(self) -> nx.DiGraph:
        """The module dependency graph (copy-free; treat as read-only)."""
        return self._graph

    @property
    def schema(self) -> Schema:
        """Schema over all workflow attributes ``A = ∪_i (I_i ∪ O_i)``."""
        return self._schema

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._schema.names

    @property
    def private_modules(self) -> tuple[Module, ...]:
        return self._private

    @property
    def public_modules(self) -> tuple[Module, ...]:
        return self._public

    @property
    def is_all_private(self) -> bool:
        """True if every module is private (the Section 4 setting)."""
        return not self._public

    def with_attribute_costs(self, costs: Mapping[str, float]) -> "Workflow":
        """Copy of the workflow with some attribute hiding costs overridden.

        Attribute names absent from ``costs`` keep their declared cost; an
        unknown name raises :class:`SchemaError`.  Module relations and the
        provenance relation are shared with this workflow (privacy analysis
        never depends on costs), which is what lets the engine's derivation
        cache reuse requirement lists across what-if cost scenarios.
        """
        unknown = set(costs) - set(self._schema.names)
        if unknown:
            raise SchemaError(
                f"unknown attributes in cost override {sorted(unknown)!r}"
            )
        clone = Workflow(
            (module.with_attribute_costs(costs) for module in self.modules),
            name=self.name,
        )
        clone._relation_cache = self._relation_cache
        return clone

    # -- attribute roles ---------------------------------------------------------
    @property
    def initial_inputs(self) -> tuple[str, ...]:
        """Attributes not produced by any module (external workflow inputs)."""
        return tuple(
            name for name in self._schema.names if name not in self._producers
        )

    @property
    def final_outputs(self) -> tuple[str, ...]:
        """Attributes produced by some module and consumed by none."""
        consumed = {
            name for module in self.modules for name in module.input_names
        }
        return tuple(
            name
            for name in self._schema.names
            if name in self._producers and name not in consumed
        )

    @property
    def intermediate_attributes(self) -> tuple[str, ...]:
        """Attributes produced by one module and consumed by another."""
        consumed = {
            name for module in self.modules for name in module.input_names
        }
        return tuple(
            name
            for name in self._schema.names
            if name in self._producers and name in consumed
        )

    def producer_of(self, attribute: str) -> Module | None:
        """The module producing ``attribute``, or ``None`` for initial inputs."""
        if attribute not in self._schema:
            raise SchemaError(f"unknown attribute {attribute!r}")
        name = self._producers.get(attribute)
        return self._modules[name] if name is not None else None

    def consumers_of(self, attribute: str) -> tuple[Module, ...]:
        """Modules that take ``attribute`` as input (may be empty)."""
        if attribute not in self._schema:
            raise SchemaError(f"unknown attribute {attribute!r}")
        return tuple(
            module for module in self.modules if attribute in module.input_names
        )

    def data_sharing_degree(self) -> int:
        """γ of Definition 3: max #modules any single attribute feeds into.

        Computed once, when the workflow is built (a workflow is immutable).
        """
        return self._data_sharing_degree

    def has_bounded_data_sharing(self, gamma: int) -> bool:
        """True iff the workflow has γ-bounded data sharing."""
        return self.data_sharing_degree() <= gamma

    def functional_dependencies(
        self,
    ) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        """The FD set ``F = {I_i -> O_i}`` as (determinant, dependent) pairs."""
        return tuple(
            (module.input_names, module.output_names) for module in self.modules
        )

    # -- execution ----------------------------------------------------------------
    def run(self, initial_inputs: Mapping[str, Value]) -> dict[str, Value]:
        """Execute the workflow once and return the full attribute assignment.

        ``initial_inputs`` must assign a value to every initial input
        attribute.  The returned dict covers all attributes of ``A``.
        """
        missing = set(self.initial_inputs) - set(initial_inputs)
        if missing:
            raise WorkflowError(
                f"missing initial inputs: {sorted(missing)}"
            )
        state: dict[str, Value] = {
            name: initial_inputs[name] for name in self.initial_inputs
        }
        self._schema.validate_assignment(state)
        for name in self._order:
            module = self._modules[name]
            state.update(module.apply(state))
        return state

    def run_many(
        self, inputs: Iterable[Mapping[str, Value]]
    ) -> list[dict[str, Value]]:
        """Execute the workflow on several initial-input assignments."""
        return [self.run(assignment) for assignment in inputs]

    # -- provenance relation ---------------------------------------------------------
    def provenance_relation(self) -> Relation:
        """The full provenance relation ``R`` over all executions.

        Every assignment of the initial input attributes is executed once; the
        result is the relation of Section 2.3 (equal to the join of the module
        relations restricted to reachable inputs).  The result is cached.
        """
        if self._relation_cache is None:
            rows = [
                self.run(assignment)
                for assignment in self._schema.iter_assignments(self.initial_inputs)
            ]
            self._relation_cache = Relation(self._schema, rows, check_domains=False)
        return self._relation_cache

    def provenance_relation_for(
        self, initial_inputs: Iterable[Mapping[str, Value]]
    ) -> Relation:
        """Provenance relation restricted to the given executions."""
        rows = [self.run(assignment) for assignment in initial_inputs]
        return Relation(self._schema, rows, check_domains=False)

    def join_relation(self) -> Relation:
        """``R_1 ⋈ R_2 ⋈ ... ⋈ R_n`` computed by natural joins.

        This is the algebraic definition of the provenance relation used in
        Section 4.  For workflows whose modules are total functions over
        their input domains this coincides with :meth:`provenance_relation`
        projected on attributes reachable from the initial inputs; it is
        exposed separately so tests can cross-check the two constructions.
        """
        relation: Relation | None = None
        for module in self.modules:
            relation = (
                module.relation()
                if relation is None
                else relation.natural_join(module.relation())
            )
        assert relation is not None
        return relation

    # -- derived workflows ------------------------------------------------------------
    def with_privatized(self, module_names: Iterable[str]) -> "Workflow":
        """Copy of the workflow with the given public modules made private.

        Privatization (Section 5.1) hides the identity of a public module so
        the adversary can no longer use its known functionality; the module
        then behaves like a private module in the possible-worlds semantics.
        """
        to_privatize = set(module_names)
        unknown = to_privatize - set(self._modules)
        if unknown:
            raise WorkflowError(f"unknown modules {sorted(unknown)!r}")
        new_modules = []
        for module in self.modules:
            if module.name in to_privatize and module.public:
                new_modules.append(module.as_private())
            else:
                new_modules.append(module)
        return Workflow(new_modules, name=self.name)

    def with_modules_replaced(self, replacements: Mapping[str, Module]) -> "Workflow":
        """Copy of the workflow with some modules swapped for new ones.

        Replacement modules must keep the same name and schemas; this is the
        primitive behind possible-world construction (replacing ``m_j`` by the
        flipped module ``g_j`` of Lemma 1).
        """
        new_modules = []
        for module in self.modules:
            replacement = replacements.get(module.name, module)
            if replacement.name != module.name:
                raise WorkflowError(
                    "replacement module must keep the original name "
                    f"({module.name!r} -> {replacement.name!r})"
                )
            if (
                replacement.input_names != module.input_names
                or replacement.output_names != module.output_names
            ):
                raise WorkflowError(
                    f"replacement for {module.name!r} changes its schema"
                )
            new_modules.append(replacement)
        return Workflow(new_modules, name=self.name)

    # -- costs -------------------------------------------------------------------------
    def attribute_cost(self, names: Iterable[str]) -> float:
        """Total hiding cost ``c(V̄) = Σ c(a)`` of a set of attributes."""
        return self._schema.total_cost(names)

    def privatization_cost(self, module_names: Iterable[str]) -> float:
        """Total privatization cost ``c(P̄) = Σ c(m)`` of hidden public modules."""
        total = 0.0
        for name in module_names:
            module = self.module(name)
            if module.private:
                continue
            total += module.privatization_cost
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workflow({self.name!r}, modules={len(self)}, "
            f"attributes={len(self._schema)}, gamma={self.data_sharing_degree()})"
        )
