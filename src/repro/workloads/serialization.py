"""JSON (de)serialization of workflows, requirement lists, problems and solutions.

Module functions are arbitrary Python callables and therefore cannot be
serialized in general; workflows are instead serialized with their
functionality *tabulated* (the explicit input-tuple → output-tuple map each
module induces over its finite domain).  That is lossless for the purposes
of this library — every algorithm only ever consults the module relation —
and keeps the format a plain, inspectable JSON document:

```json
{
  "name": "figure1",
  "modules": [
    {"name": "m1", "private": true, "privatization_cost": 1.0,
     "inputs": [{"name": "a1", "values": [0, 1], "cost": 1.0}, ...],
     "outputs": [...],
     "table": [[[0, 0], [0, 1, 1]], ...]}
  ]
}
```

Secure-View problems serialize their requirement lists alongside the
workflow; solutions serialize hidden attributes and privatized modules.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Mapping

from ..core.attributes import Attribute, Domain
from ..core.module import Module, tabulate_function
from ..core.requirements import (
    CardinalityRequirement,
    CardinalityRequirementList,
    RequirementList,
    SetRequirement,
    SetRequirementList,
)
from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..core.workflow import Workflow
from ..exceptions import SchemaError

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "requirement_to_dict",
    "requirement_from_dict",
    "dump_workflow",
    "load_workflow",
    "dump_problem",
    "load_problem",
]


# ---------------------------------------------------------------------------
# Attributes and modules
# ---------------------------------------------------------------------------

def _attribute_to_dict(attribute: Attribute) -> dict[str, Any]:
    return {
        "name": attribute.name,
        "values": list(attribute.domain.values),
        "cost": attribute.cost,
    }


def _attribute_from_dict(payload: Mapping[str, Any]) -> Attribute:
    return Attribute(
        payload["name"],
        Domain(payload["values"]),
        float(payload.get("cost", 1.0)),
    )


def _module_to_dict(
    module: Module, table: Mapping[tuple, tuple] | None = None
) -> dict[str, Any]:
    """Serialize one module; ``table`` is its :func:`tabulate_function` map
    when the caller already holds it."""
    if table is None:
        table = tabulate_function(module)
    return {
        "name": module.name,
        "private": module.private,
        "privatization_cost": module.privatization_cost,
        "inputs": [_attribute_to_dict(a) for a in module.input_schema],
        "outputs": [_attribute_to_dict(a) for a in module.output_schema],
        "table": [[list(key), list(value)] for key, value in sorted(table.items())],
    }


def _module_from_dict(payload: Mapping[str, Any]) -> Module:
    return _module_and_table(payload)[0]


def _module_and_table(
    payload: Mapping[str, Any],
) -> tuple[Module, dict[tuple, tuple]]:
    """Rebuild one serialized module, returned with its raw tabulated map."""
    inputs = [_attribute_from_dict(item) for item in payload["inputs"]]
    outputs = [_attribute_from_dict(item) for item in payload["outputs"]]
    input_names = [a.name for a in inputs]
    output_names = [a.name for a in outputs]
    table = {
        tuple(key): tuple(value) for key, value in payload["table"]
    }

    def function(values: Mapping[str, Any]) -> dict[str, Any]:
        key = tuple(values[name] for name in input_names)
        try:
            image = table[key]
        except KeyError as exc:
            raise _missing_row(payload["name"], key) from exc
        return dict(zip(output_names, image))

    module = Module(
        payload["name"],
        inputs,
        outputs,
        function,
        private=bool(payload.get("private", True)),
        privatization_cost=float(payload.get("privatization_cost", 1.0)),
    )
    return module, table


def _missing_row(module_name: str, key: tuple) -> SchemaError:
    return SchemaError(f"module {module_name!r} has no tabulated output for {key!r}")


def _checked_table(module: Module, table: Mapping[tuple, tuple]) -> dict[tuple, tuple]:
    """:func:`tabulate_function` of a module rebuilt from ``table``, read
    straight off ``table`` instead of evaluating the module row by row.

    Enumerates the input domain in the same order and raises what that
    evaluation raises: :class:`SchemaError` for an input row without an
    image (or an image short of an output), :class:`DomainError` for an
    output value outside its domain.
    """
    outputs = module.output_names
    domains = [attribute.domain for attribute in module.output_schema]
    checked: dict[tuple, tuple] = {}
    for key in itertools.product(*(a.domain.values for a in module.input_schema)):
        try:
            image = table[key]
        except KeyError:
            raise _missing_row(module.name, key) from None
        if len(image) < len(outputs):
            raise SchemaError(
                f"module {module.name!r} did not produce output attribute "
                f"{outputs[len(image)]!r}"
            )
        image = image[: len(outputs)]
        for domain, value in zip(domains, image):
            if value not in domain.values:
                domain.validate(value)  # raises the DomainError evaluation does
        checked[key] = image
    return checked


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------

def workflow_to_dict(workflow: Workflow) -> dict[str, Any]:
    """Serialize a workflow (with tabulated module functionality)."""
    return {
        "name": workflow.name,
        "modules": [_module_to_dict(module) for module in workflow.modules],
    }


def workflow_from_dict(payload: Mapping[str, Any]) -> Workflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output."""
    modules = [_module_from_dict(item) for item in payload["modules"]]
    return Workflow(modules, name=payload.get("name", "workflow"))


def _reserialized_workflow_dict(payload: Mapping[str, Any]) -> dict[str, Any]:
    """``workflow_to_dict(workflow_from_dict(payload))`` without evaluating
    any module, modules in payload order.

    Rebuilds each module's schemas and checks its table over the input
    domain (:func:`_checked_table`), so a module-level defect raises the
    same error; workflow-level wiring (producers, cycles) is not checked.
    """
    modules = []
    for item in payload["modules"]:
        module, table = _module_and_table(item)
        modules.append(_module_to_dict(module, _checked_table(module, table)))
    return {"name": payload.get("name", "workflow"), "modules": modules}


def dump_workflow(workflow: Workflow, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workflow_to_dict(workflow), handle, indent=2, sort_keys=True)


def load_workflow(path: str) -> Workflow:
    with open(path, "r", encoding="utf-8") as handle:
        return workflow_from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Requirement lists, problems and solutions
# ---------------------------------------------------------------------------

def requirement_to_dict(requirement: RequirementList) -> dict[str, Any]:
    """Serialize one requirement list (set or cardinality) to plain JSON."""
    if isinstance(requirement, SetRequirementList):
        return {
            "kind": "set",
            "module": requirement.module_name,
            "options": [
                {
                    "hidden_inputs": sorted(option.hidden_inputs),
                    "hidden_outputs": sorted(option.hidden_outputs),
                }
                for option in requirement
            ],
        }
    if isinstance(requirement, CardinalityRequirementList):
        return {
            "kind": "cardinality",
            "module": requirement.module_name,
            "options": [
                {"alpha": option.alpha, "beta": option.beta} for option in requirement
            ],
        }
    raise SchemaError(
        f"cannot serialize requirement list of type {type(requirement)!r}"
    )


def requirement_from_dict(payload: Mapping[str, Any]) -> RequirementList:
    """Rebuild a requirement list from :func:`requirement_to_dict` output."""
    module_name = payload["module"]
    if payload["kind"] == "set":
        return SetRequirementList(
            module_name,
            [
                SetRequirement(
                    frozenset(option["hidden_inputs"]),
                    frozenset(option["hidden_outputs"]),
                )
                for option in payload["options"]
            ],
        )
    if payload["kind"] == "cardinality":
        return CardinalityRequirementList(
            module_name,
            [
                CardinalityRequirement(int(option["alpha"]), int(option["beta"]))
                for option in payload["options"]
            ],
        )
    raise SchemaError(f"unknown requirement kind {payload['kind']!r}")


def problem_to_dict(problem: SecureViewProblem) -> dict[str, Any]:
    """Serialize a Secure-View problem (workflow + requirements + options)."""
    return {
        "workflow": workflow_to_dict(problem.workflow),
        "gamma": problem.gamma,
        "allow_privatization": problem.allow_privatization,
        "hidable_attributes": sorted(problem.hidable_attributes),
        "requirements": [
            requirement_to_dict(requirement)
            for requirement in problem.requirements.values()
        ],
    }


def problem_from_dict(payload: Mapping[str, Any]) -> SecureViewProblem:
    """Rebuild a Secure-View problem from :func:`problem_to_dict` output."""
    workflow = workflow_from_dict(payload["workflow"])
    requirements = {
        item["module"]: requirement_from_dict(item)
        for item in payload["requirements"]
    }
    return SecureViewProblem(
        workflow,
        gamma=int(payload["gamma"]),
        requirements=requirements,
        hidable_attributes=frozenset(payload["hidable_attributes"]),
        allow_privatization=bool(payload.get("allow_privatization", True)),
    )


def dump_problem(problem: SecureViewProblem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2, sort_keys=True)


def load_problem(path: str) -> SecureViewProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_dict(json.load(handle))


def solution_to_dict(solution: SecureViewSolution) -> dict[str, Any]:
    """Serialize a solution (hidden attributes, privatized modules, cost)."""
    return {
        "hidden_attributes": sorted(solution.hidden_attributes),
        "privatized_modules": sorted(solution.privatized_modules),
        "cost": solution.cost(),
        "method": solution.meta.get("method"),
    }


def solution_from_dict(
    workflow: Workflow, payload: Mapping[str, Any]
) -> SecureViewSolution:
    """Rebuild a solution against a workflow (costs are recomputed, not trusted)."""
    return SecureViewSolution(
        workflow,
        frozenset(payload["hidden_attributes"]),
        frozenset(payload.get("privatized_modules", ())),
        meta={"method": payload.get("method", "loaded")},
    )
