"""Random workflow and Secure-View instance generators.

The paper's algorithms are evaluated here on synthetic workflows because no
public corpus ships the abstract relations the model needs (see DESIGN.md).
Three layers of generators are provided:

* **topology generators** — chains, layered DAGs and random DAGs with a
  controllable data-sharing degree γ (Definition 3),
* **requirement generators** — random non-redundant cardinality or set
  requirement lists of bounded length ℓ_max, usable on workflows far too
  large for exhaustive standalone analysis,
* **problem generators** — glue the two into ready
  :class:`repro.core.SecureViewProblem` instances with random costs.

All generators are deterministic given a seed.  Like the solvers (after the
engine refactor), every generator also accepts an explicit ``rng``; passing
one :class:`random.Random` through a pipeline of generator calls makes a
whole benchmark instance reproducible end-to-end from a single seed, with
each stage consuming the same stream instead of re-seeding privately.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from ..core.attributes import Attribute, BOOLEAN, boolean_attributes
from ..core.module import Module
from ..core.requirements import (
    CardinalityRequirement,
    CardinalityRequirementList,
    RequirementList,
    SetRequirement,
    SetRequirementList,
)
from ..core.secure_view import SecureViewProblem
from ..core.workflow import Workflow
from ..exceptions import WorkflowError

__all__ = [
    "chain_workflow",
    "layered_workflow",
    "random_total_module",
    "random_workflow",
    "workflow_family",
    "random_cardinality_requirements",
    "random_set_requirements",
    "random_requirements",
    "random_problem",
]


def random_total_module(
    seed: int, n_inputs: int, n_outputs: int, name: str, prefix: str
) -> Module:
    """A random *total* boolean function as a module (dense relation).

    Every input code maps to an independently random output tuple, so the
    module's relation has ``2^n_inputs`` rows and essentially no exploitable
    structure — the derivation-dominated regime the kernel, sweep,
    incremental and service benchmarks all measure in.  Attribute names are
    ``{prefix}i<k>`` / ``{prefix}o<k>``, letting callers build workflows of
    schema-disjoint modules (or content-identical ones, by repeating
    ``seed``/``name``/``prefix``).  Deterministic in ``seed``.
    """
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


def _resolve_rng(rng: random.Random | None, seed: int | None) -> random.Random:
    """An explicit ``rng`` wins; otherwise a fresh stream seeded by ``seed``."""
    return rng if rng is not None else random.Random(seed)


def _gate_function(
    output_names: Sequence[str],
    input_names: Sequence[str],
    kind_per_output: Sequence[str],
):
    """A deterministic boolean function mixing its inputs per output."""

    def function(x: Mapping[str, int]) -> dict[str, int]:
        bits = [int(x[name]) for name in input_names]
        result: dict[str, int] = {}
        for index, (out, kind) in enumerate(zip(output_names, kind_per_output)):
            if not bits:
                result[out] = index & 1
            elif kind == "and":
                value = 1
                for bit in bits:
                    value &= bit
                result[out] = value
            elif kind == "or":
                value = 0
                for bit in bits:
                    value |= bit
                result[out] = value
            else:  # parity, offset by the output index so outputs differ
                value = index & 1
                for bit in bits:
                    value ^= bit
                result[out] = value
        return result

    return function


def _make_module(
    name: str,
    input_attrs: Sequence[Attribute],
    n_outputs: int,
    rng: random.Random,
    private: bool,
    cost_range: tuple[float, float],
    privatization_cost_range: tuple[float, float],
    attr_prefix: str,
) -> Module:
    output_attrs = [
        Attribute(
            f"{attr_prefix}_{i}",
            BOOLEAN,
            cost=round(rng.uniform(*cost_range), 3),
        )
        for i in range(n_outputs)
    ]
    kinds = [rng.choice(["and", "or", "xor"]) for _ in range(n_outputs)]
    function = _gate_function(
        [a.name for a in output_attrs], [a.name for a in input_attrs], kinds
    )
    return Module(
        name,
        list(input_attrs),
        output_attrs,
        function,
        private=private,
        privatization_cost=round(rng.uniform(*privatization_cost_range), 3),
    )


def chain_workflow(
    n_modules: int,
    width: int = 2,
    seed: int | None = 0,
    private_fraction: float = 1.0,
    cost_range: tuple[float, float] = (1.0, 5.0),
    rng: random.Random | None = None,
) -> Workflow:
    """A chain of ``n_modules`` modules, each passing ``width`` attributes on.

    Data sharing degree is 1 (no attribute feeds two modules), which is the
    regime of Theorem 7's greedy algorithm.
    """
    if n_modules < 1 or width < 1:
        raise WorkflowError("chain_workflow needs n_modules >= 1 and width >= 1")
    rng = _resolve_rng(rng, seed)
    current = [
        Attribute(f"in_{i}", BOOLEAN, cost=round(rng.uniform(*cost_range), 3))
        for i in range(width)
    ]
    modules = []
    for index in range(n_modules):
        private = rng.random() < private_fraction
        module = _make_module(
            f"m{index}",
            current,
            width,
            rng,
            private,
            cost_range,
            (1.0, 5.0),
            attr_prefix=f"d{index}",
        )
        modules.append(module)
        current = list(module.output_schema.attributes)
    return Workflow(modules, name=f"chain[n={n_modules},w={width}]")


def layered_workflow(
    layers: int,
    modules_per_layer: int,
    inputs_per_module: int = 2,
    outputs_per_module: int = 2,
    seed: int | None = 0,
    private_fraction: float = 1.0,
    max_sharing: int | None = None,
    cost_range: tuple[float, float] = (1.0, 5.0),
    rng: random.Random | None = None,
) -> Workflow:
    """A layered DAG: every module draws its inputs from the previous layer.

    ``max_sharing`` caps how many modules a single attribute may feed
    (the γ of Definition 3); ``None`` leaves it unconstrained.
    """
    if layers < 1 or modules_per_layer < 1:
        raise WorkflowError("layered_workflow needs at least one layer and module")
    rng = _resolve_rng(rng, seed)
    previous_layer = [
        Attribute(f"src_{i}", BOOLEAN, cost=round(rng.uniform(*cost_range), 3))
        for i in range(max(modules_per_layer * outputs_per_module, inputs_per_module))
    ]
    usage: dict[str, int] = {attr.name: 0 for attr in previous_layer}
    modules = []
    for layer in range(layers):
        next_layer: list[Attribute] = []
        for position in range(modules_per_layer):
            available = [
                attr
                for attr in previous_layer
                if max_sharing is None or usage[attr.name] < max_sharing
            ]
            if len(available) < inputs_per_module:
                available = list(previous_layer)
            chosen = rng.sample(available, min(inputs_per_module, len(available)))
            for attr in chosen:
                usage[attr.name] = usage.get(attr.name, 0) + 1
            private = rng.random() < private_fraction
            module = _make_module(
                f"m{layer}_{position}",
                chosen,
                outputs_per_module,
                rng,
                private,
                cost_range,
                (1.0, 5.0),
                attr_prefix=f"d{layer}_{position}",
            )
            modules.append(module)
            outs = list(module.output_schema.attributes)
            next_layer.extend(outs)
            for attr in outs:
                usage[attr.name] = 0
        previous_layer = next_layer
    return Workflow(
        modules, name=f"layered[{layers}x{modules_per_layer}]"
    )


def random_workflow(
    n_modules: int,
    seed: int | None = 0,
    private_fraction: float = 1.0,
    max_inputs: int = 3,
    max_outputs: int = 2,
    max_sharing: int | None = None,
    fresh_input_probability: float = 0.2,
    cost_range: tuple[float, float] = (1.0, 5.0),
    rng: random.Random | None = None,
) -> Workflow:
    """A random DAG workflow built module by module in topological order.

    Each new module draws inputs from previously produced attributes (or
    fresh initial inputs with probability ``fresh_input_probability``),
    respecting the optional ``max_sharing`` bound γ.
    """
    if n_modules < 1:
        raise WorkflowError("random_workflow needs n_modules >= 1")
    rng = _resolve_rng(rng, seed)
    pool: list[Attribute] = [
        Attribute(f"src_{i}", BOOLEAN, cost=round(rng.uniform(*cost_range), 3))
        for i in range(2)
    ]
    usage: dict[str, int] = {attr.name: 0 for attr in pool}
    fresh_counter = len(pool)
    modules = []
    for index in range(n_modules):
        n_inputs = rng.randint(1, max_inputs)
        chosen: list[Attribute] = []
        for _ in range(n_inputs):
            candidates = [
                attr
                for attr in pool
                if attr not in chosen
                and (max_sharing is None or usage[attr.name] < max_sharing)
            ]
            if not candidates or rng.random() < fresh_input_probability:
                attr = Attribute(
                    f"src_{fresh_counter}",
                    BOOLEAN,
                    cost=round(rng.uniform(*cost_range), 3),
                )
                fresh_counter += 1
                pool.append(attr)
                usage[attr.name] = 0
                chosen.append(attr)
            else:
                chosen.append(rng.choice(candidates))
        for attr in chosen:
            usage[attr.name] += 1
        private = rng.random() < private_fraction
        module = _make_module(
            f"m{index}",
            chosen,
            rng.randint(1, max_outputs),
            rng,
            private,
            cost_range,
            (1.0, 5.0),
            attr_prefix=f"d{index}",
        )
        modules.append(module)
        for attr in module.output_schema.attributes:
            pool.append(attr)
            usage[attr.name] = 0
    return Workflow(modules, name=f"random[n={n_modules},seed={seed}]")


def _reroll_module(module: Module, rng: random.Random) -> Module:
    """A same-schema module with freshly randomized boolean functionality.

    Keeps the module's name and input/output attributes (so the workflow
    wiring is untouched) but replaces the function with new random gates
    plus a per-output flip mask, retrying until the tabulated functionality
    actually differs from the original — an "edit" that changes nothing
    would make edit-chains degenerate.
    """
    from ..core.module import tabulate_function

    for attr in module.schema:
        if set(attr.domain.values) != {0, 1}:
            raise WorkflowError(
                f"workflow_family can only re-roll boolean modules; "
                f"attribute {attr.name!r} of {module.name!r} is not boolean"
            )
    original = tabulate_function(module)
    output_names = list(module.output_names)
    for _ in range(16):
        kinds = [rng.choice(["and", "or", "xor"]) for _ in output_names]
        flips = [rng.randint(0, 1) for _ in output_names]
        inner = _gate_function(output_names, list(module.input_names), kinds)

        def function(values, _inner=inner, _flips=flips, _names=output_names):
            mixed = _inner(values)
            return {
                name: int(mixed[name]) ^ flip for name, flip in zip(_names, _flips)
            }

        candidate = module.with_function(function)
        if tabulate_function(candidate) != original:
            return candidate
    raise WorkflowError(
        f"could not re-roll module {module.name!r} to a distinct functionality"
    )


def workflow_family(
    base: Workflow | None = None,
    n_variants: int = 4,
    seed: int | None = 0,
    edits_per_step: int = 1,
    rng: random.Random | None = None,
    n_modules: int = 6,
    topology: str = "random",
) -> list[Workflow]:
    """An edit-chain of related workflows sharing most of their modules.

    Returns ``[base, v1, ..., v_{n_variants}]`` where each variant is the
    previous workflow with ``edits_per_step`` modules re-rolled to a new
    random boolean functionality (same name, same attribute schemas, so the
    DAG wiring is identical).  Consecutive variants therefore differ in
    exactly ``edits_per_step`` module fingerprints and share all others —
    the workload shape behind incremental re-solve (``Planner.evolve``) and
    the sweep executor's shared-module chunking: a grid over one family
    pays each *distinct* module derivation once.

    ``base`` defaults to a :func:`chain_workflow` / :func:`random_workflow`
    style instance built from ``n_modules`` and ``topology`` (``"chain"``,
    ``"layered"`` or ``"random"``).  All modules must be boolean.
    """
    if n_variants < 0:
        raise WorkflowError("workflow_family needs n_variants >= 0")
    rng = _resolve_rng(rng, seed)
    if base is None:
        if topology == "chain":
            base = chain_workflow(n_modules, rng=rng)
        elif topology == "layered":
            per_layer = max(2, int(round(n_modules**0.5)))
            base = layered_workflow(max(1, n_modules // per_layer), per_layer, rng=rng)
        elif topology == "random":
            base = random_workflow(n_modules, rng=rng)
        else:
            raise WorkflowError(f"unknown workflow_family topology {topology!r}")
    family = [base]
    current = base
    for step in range(1, n_variants + 1):
        count = min(max(1, edits_per_step), len(current.module_names))
        edited = rng.sample(list(current.module_names), count)
        replacements = {
            name: _reroll_module(current.module(name), rng) for name in edited
        }
        current = Workflow(
            [replacements.get(m.name, m) for m in current.modules],
            name=f"{base.name}@edit{step}",
        )
        family.append(current)
    return family


# ---------------------------------------------------------------------------
# Requirement generators
# ---------------------------------------------------------------------------

def random_cardinality_requirements(
    workflow: Workflow,
    seed: int | None = 0,
    max_list_length: int = 3,
    rng: random.Random | None = None,
) -> dict[str, CardinalityRequirementList]:
    """Random non-redundant cardinality lists for every private module.

    Each list holds up to ``max_list_length`` Pareto-incomparable pairs
    ``(α, β)`` with ``α ≤ |I_i|``, ``β ≤ |O_i|`` and ``α + β >= 1``.
    """
    rng = _resolve_rng(rng, seed)
    lists: dict[str, CardinalityRequirementList] = {}
    for module in workflow.private_modules:
        n_in = len(module.input_names)
        n_out = len(module.output_names)
        options: list[CardinalityRequirement] = []
        attempts = 0
        target = rng.randint(1, max_list_length)
        while len(options) < target and attempts < 20 * max_list_length:
            attempts += 1
            alpha = rng.randint(0, n_in)
            beta = rng.randint(0, n_out)
            if alpha + beta == 0:
                continue
            candidate = CardinalityRequirement(alpha, beta)
            if any(
                existing.dominates(candidate) or candidate.dominates(existing)
                for existing in options
            ):
                continue
            options.append(candidate)
        if not options:
            options.append(
                CardinalityRequirement(min(1, n_in), min(1, n_out) if n_in == 0 else 0)
            )
        lists[module.name] = CardinalityRequirementList(
            module.name, options
        ).normalized()
    return lists


def random_set_requirements(
    workflow: Workflow,
    seed: int | None = 0,
    max_list_length: int = 3,
    max_option_size: int = 2,
    rng: random.Random | None = None,
) -> dict[str, SetRequirementList]:
    """Random set-constraint lists for every private module.

    Each option is a random subset of the module's attributes of size at
    most ``max_option_size`` (and at least 1); dominated options are removed.
    """
    rng = _resolve_rng(rng, seed)
    lists: dict[str, SetRequirementList] = {}
    for module in workflow.private_modules:
        attributes = list(module.attribute_names)
        inputs = set(module.input_names)
        options: list[SetRequirement] = []
        target = rng.randint(1, max_list_length)
        attempts = 0
        while len(options) < target and attempts < 20 * max_list_length:
            attempts += 1
            size = rng.randint(1, min(max_option_size, len(attributes)))
            chosen = frozenset(rng.sample(attributes, size))
            option = SetRequirement(
                frozenset(chosen & inputs), frozenset(chosen - inputs)
            )
            if any(
                existing.attributes <= option.attributes
                or option.attributes <= existing.attributes
                for existing in options
            ):
                continue
            options.append(option)
        if not options:
            chosen = frozenset({attributes[0]})
            options.append(
                SetRequirement(frozenset(chosen & inputs), frozenset(chosen - inputs))
            )
        lists[module.name] = SetRequirementList(module.name, options).normalized()
    return lists


def random_requirements(
    workflow: Workflow,
    kind: str = "cardinality",
    seed: int | None = 0,
    max_list_length: int = 3,
    max_option_size: int = 2,
    rng: random.Random | None = None,
) -> dict[str, RequirementList]:
    """Dispatch to the cardinality or set requirement generator."""
    if kind == "cardinality":
        return random_cardinality_requirements(
            workflow, seed=seed, max_list_length=max_list_length, rng=rng
        )
    if kind == "set":
        return random_set_requirements(
            workflow,
            seed=seed,
            max_list_length=max_list_length,
            max_option_size=max_option_size,
            rng=rng,
        )
    raise WorkflowError(f"unknown requirement kind {kind!r}")


def random_problem(
    n_modules: int = 10,
    kind: str = "cardinality",
    seed: int | None = 0,
    gamma: int = 2,
    topology: str = "random",
    private_fraction: float = 1.0,
    max_sharing: int | None = None,
    max_list_length: int = 3,
    rng: random.Random | None = None,
) -> SecureViewProblem:
    """A complete random Secure-View instance (workflow + requirement lists).

    With an explicit ``rng``, topology and requirement generation draw from
    the *same* stream, so one seeded :class:`random.Random` reproduces the
    entire instance.  With only ``seed`` the historical behaviour is kept:
    each stage re-seeds its own private stream from ``seed``.
    """
    if topology == "chain":
        workflow = chain_workflow(
            n_modules, seed=seed, private_fraction=private_fraction, rng=rng
        )
    elif topology == "layered":
        per_layer = max(2, int(round(n_modules**0.5)))
        layers = max(1, n_modules // per_layer)
        workflow = layered_workflow(
            layers,
            per_layer,
            seed=seed,
            private_fraction=private_fraction,
            max_sharing=max_sharing,
            rng=rng,
        )
    else:
        workflow = random_workflow(
            n_modules,
            seed=seed,
            private_fraction=private_fraction,
            max_sharing=max_sharing,
            rng=rng,
        )
    if not workflow.private_modules:
        # A Secure-View problem needs a private module; taking the first
        # draws nothing, so every draw that has one is unchanged.
        workflow = workflow.with_privatized([workflow.modules[0].name])
    requirements = random_requirements(
        workflow, kind=kind, seed=seed, max_list_length=max_list_length, rng=rng
    )
    return SecureViewProblem(workflow, gamma=gamma, requirements=requirements)
