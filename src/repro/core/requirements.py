"""Requirement lists for the workflow Secure-View problem (Section 4.2).

The workflow Secure-View problem does not re-derive module privacy from
scratch: each module ``m_i`` comes with a *requirement list* ``L_i``
describing which hidden attribute choices make it safe.  The paper studies
two encodings:

* **set constraints** — ``L_i = [(I_i^1, O_i^1), ..., (I_i^{l_i}, O_i^{l_i})]``
  where each pair is an explicit set of input and output attributes whose
  hiding suffices, and
* **cardinality constraints** — ``L_i = [(α_i^1, β_i^1), ...]`` where hiding
  *any* ``α`` input attributes and ``β`` output attributes suffices.

Both are represented here, together with satisfaction checks against a
candidate hidden set, non-redundancy normalization, and derivation from
standalone privacy analysis (:mod:`repro.core.standalone`), which is how the
composition theorems (Theorems 4 and 8) turn standalone guarantees into
workflow requirement lists.  On the kernel backend both derivations ride
the batched mask sweep — candidate subsets are levelled in vectorized
passes over the packed relation, and cardinality lists additionally probe
only the monotone (α, β) safety frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import RequirementError
from .module import Module
from .relation import Relation
from .standalone import (
    minimal_safe_cardinality_pairs,
    minimal_safe_hidden_subsets,
    pareto_minimal_pairs,
)
from .workflow import Workflow

__all__ = [
    "SetRequirement",
    "CardinalityRequirement",
    "SetRequirementList",
    "CardinalityRequirementList",
    "RequirementList",
    "derive_set_requirements",
    "derive_cardinality_requirements",
    "derive_module_requirement",
    "derive_workflow_requirements",
]


@dataclass(frozen=True)
class SetRequirement:
    """One option ``(I_i^j, O_i^j)``: hide these inputs and these outputs."""

    hidden_inputs: frozenset[str]
    hidden_outputs: frozenset[str]

    @property
    def attributes(self) -> frozenset[str]:
        return self.hidden_inputs | self.hidden_outputs

    def satisfied_by(self, hidden: Iterable[str]) -> bool:
        """Does the candidate hidden set cover this option?"""
        hidden_set = set(hidden)
        return self.attributes <= hidden_set

    def dominates(self, other: "SetRequirement") -> bool:
        """A requirement dominates another if it asks for a subset of it."""
        return self.attributes <= other.attributes


@dataclass(frozen=True)
class CardinalityRequirement:
    """One option ``(α, β)``: hide at least α inputs and β outputs."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise RequirementError("cardinality requirements must be non-negative")

    def satisfied_by(self, hidden: Iterable[str], module: Module) -> bool:
        hidden_set = set(hidden)
        hidden_inputs = hidden_set & set(module.input_names)
        hidden_outputs = hidden_set & set(module.output_names)
        return len(hidden_inputs) >= self.alpha and len(hidden_outputs) >= self.beta

    def dominates(self, other: "CardinalityRequirement") -> bool:
        return self.alpha <= other.alpha and self.beta <= other.beta


class SetRequirementList:
    """The set-constraint requirement list ``L_i`` of one module."""

    def __init__(self, module_name: str, options: Iterable[SetRequirement]) -> None:
        self.module_name = module_name
        self.options: tuple[SetRequirement, ...] = tuple(options)
        if not self.options:
            raise RequirementError(
                f"module {module_name!r} has an empty requirement list"
            )

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self):
        return iter(self.options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetRequirementList({self.module_name!r}, {len(self.options)} options)"

    def satisfied_by(self, hidden: Iterable[str]) -> bool:
        """Is some option fully hidden by the candidate hidden set?"""
        hidden_set = set(hidden)
        return any(option.satisfied_by(hidden_set) for option in self.options)

    def normalized(self) -> "SetRequirementList":
        """Remove options dominated by (i.e. supersets of) other options."""
        kept: list[SetRequirement] = []
        for option in sorted(
            self.options, key=lambda o: (len(o.attributes), sorted(o.attributes))
        ):
            if not any(existing.dominates(option) for existing in kept):
                kept.append(option)
        return SetRequirementList(self.module_name, kept)

    def validate_against(self, module: Module) -> None:
        """Check that every option only references the module's attributes."""
        inputs = set(module.input_names)
        outputs = set(module.output_names)
        for option in self.options:
            if not option.hidden_inputs <= inputs:
                raise RequirementError(
                    f"{self.module_name!r}: {sorted(option.hidden_inputs)} not all inputs"
                )
            if not option.hidden_outputs <= outputs:
                raise RequirementError(
                    f"{self.module_name!r}: {sorted(option.hidden_outputs)} not all outputs"
                )

    @property
    def max_option_size(self) -> int:
        return max(len(option.attributes) for option in self.options)


class CardinalityRequirementList:
    """The cardinality-constraint requirement list ``L_i`` of one module."""

    def __init__(
        self, module_name: str, options: Iterable[CardinalityRequirement]
    ) -> None:
        self.module_name = module_name
        self.options: tuple[CardinalityRequirement, ...] = tuple(options)
        if not self.options:
            raise RequirementError(
                f"module {module_name!r} has an empty requirement list"
            )

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self):
        return iter(self.options)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = [(o.alpha, o.beta) for o in self.options]
        return f"CardinalityRequirementList({self.module_name!r}, {pairs})"

    def satisfied_by(self, hidden: Iterable[str], module: Module) -> bool:
        hidden_set = set(hidden)
        return any(option.satisfied_by(hidden_set, module) for option in self.options)

    def normalized(self) -> "CardinalityRequirementList":
        """Keep only the Pareto frontier of (α, β) pairs."""
        kept: list[CardinalityRequirement] = []
        for option in sorted(self.options, key=lambda o: (o.alpha, o.beta)):
            if not any(existing.dominates(option) for existing in kept):
                kept.append(option)
        return CardinalityRequirementList(self.module_name, kept)

    def validate_against(self, module: Module) -> None:
        for option in self.options:
            if option.alpha > len(module.input_names):
                raise RequirementError(
                    f"{self.module_name!r}: α={option.alpha} exceeds |I|"
                )
            if option.beta > len(module.output_names):
                raise RequirementError(
                    f"{self.module_name!r}: β={option.beta} exceeds |O|"
                )

    def to_set_requirements(self, module: Module) -> SetRequirementList:
        """Expand into explicit set constraints (may be exponentially larger).

        This is the expressiveness relation discussed around Example 6: every
        cardinality list can be expressed as a set list by enumerating all
        attribute choices of the required sizes.
        """
        import itertools

        options = []
        for requirement in self.options:
            for ins in itertools.combinations(module.input_names, requirement.alpha):
                for outs in itertools.combinations(
                    module.output_names, requirement.beta
                ):
                    options.append(
                        SetRequirement(frozenset(ins), frozenset(outs))
                    )
        return SetRequirementList(self.module_name, options).normalized()


#: Either kind of requirement list.
RequirementList = SetRequirementList | CardinalityRequirementList


def derive_set_requirements(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    backend: str | None = None,
    compiled=None,
) -> SetRequirementList:
    """Derive a module's set-constraint list from standalone privacy analysis.

    The options are the inclusion-minimal safe hidden subsets of the module
    (Section 3.2's exhaustive enumeration), split into their input and output
    parts.  Theorem 4 guarantees these standalone options remain sufficient
    inside an all-private workflow.

    ``compiled`` accepts an already-compiled
    :class:`~repro.kernel.module_kernel.CompiledModule` (e.g. one served
    from the derivation store's module tier, warm privacy-level memos
    included); when given, the sweep runs on it directly and ``relation`` /
    ``backend`` are ignored.
    """
    if compiled is not None:
        minimal = compiled.minimal_safe_hidden_subsets(gamma)
    else:
        minimal = minimal_safe_hidden_subsets(
            module, gamma, relation=relation, backend=backend
        )
    inputs = set(module.input_names)
    outputs = set(module.output_names)
    options = [
        SetRequirement(frozenset(h & inputs), frozenset(h & outputs))
        for h in minimal
    ]
    return SetRequirementList(module.name, options)


def derive_cardinality_requirements(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    backend: str | None = None,
    compiled=None,
) -> CardinalityRequirementList:
    """Derive a module's cardinality-constraint list (Pareto-minimal pairs).

    ``compiled`` works as in :func:`derive_set_requirements`.
    """
    if compiled is not None:
        pairs = pareto_minimal_pairs(compiled.safe_cardinality_pairs(gamma))
    else:
        pairs = minimal_safe_cardinality_pairs(
            module, gamma, relation=relation, backend=backend
        )
    if not pairs:
        raise RequirementError(
            f"module {module.name!r} admits no cardinality-safe pair for Γ={gamma}"
        )
    options = [CardinalityRequirement(alpha, beta) for alpha, beta in pairs]
    return CardinalityRequirementList(module.name, options)


def derive_module_requirement(
    module: Module,
    gamma: int,
    kind: str = "set",
    relation: Relation | None = None,
    backend: str | None = None,
    compiled=None,
) -> RequirementList:
    """The requirement list of *one* module — the unit of derivation.

    Everything here is a pure function of the module's own content (its
    name, schemas and tabulated functionality) plus ``(Γ, kind)``: the
    paper's composition theorems turn standalone guarantees into workflow
    requirement lists module by module, which is what lets the engine key
    these artifacts by :func:`~repro.workloads.module_fingerprint` and share
    them across every workflow containing the module.
    """
    if kind == "set":
        return derive_set_requirements(
            module, gamma, relation=relation, backend=backend, compiled=compiled
        )
    if kind == "cardinality":
        return derive_cardinality_requirements(
            module, gamma, relation=relation, backend=backend, compiled=compiled
        )
    raise RequirementError(f"unknown requirement kind {kind!r}")


def derive_workflow_requirements(
    workflow: Workflow,
    gamma: int,
    kind: str = "set",
    modules: Sequence[str] | None = None,
    backend: str | None = None,
) -> dict[str, RequirementList]:
    """Requirement lists for every (private) module of a workflow.

    Parameters
    ----------
    workflow, gamma:
        The workflow and the uniform privacy requirement.
    kind:
        ``"set"`` or ``"cardinality"``.
    modules:
        Module names to derive lists for; defaults to the private modules
        (public modules need no protection).
    backend:
        ``"kernel"`` (default) derives on bit-packed relations;
        ``"reference"`` uses the brute-force Safe-View oracle.
    """
    if kind not in {"set", "cardinality"}:
        raise RequirementError(f"unknown requirement kind {kind!r}")
    targets = (
        [workflow.module(name) for name in modules]
        if modules is not None
        else list(workflow.private_modules)
    )
    # A workflow's requirement mapping is nothing but the per-module
    # derivations assembled in workflow module order — the property the
    # engine's module-granular cache tier relies on.
    return {
        module.name: derive_module_requirement(
            module, gamma, kind=kind, backend=backend
        )
        for module in targets
    }
