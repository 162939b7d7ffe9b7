"""Cost models for hidden attributes and privatized public modules.

The paper uses an additive cost model: each attribute ``a`` has a penalty
``c(a)`` incurred when it is hidden, and (in Section 5) each public module
``m`` has a penalty ``c(m)`` incurred when it is privatized.  The helpers
here build and manipulate such cost assignments and compute solution costs.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping

from ..exceptions import SchemaError
from .workflow import Workflow

__all__ = [
    "uniform_attribute_costs",
    "random_attribute_costs",
    "solution_cost",
    "attribute_cost_map",
    "privatization_cost_map",
]


def uniform_attribute_costs(
    names: Iterable[str], cost: float = 1.0
) -> dict[str, float]:
    """Assign the same hiding cost to every attribute name."""
    if cost < 0:
        raise SchemaError("costs must be non-negative")
    return {name: float(cost) for name in names}


def random_attribute_costs(
    names: Iterable[str],
    low: float = 1.0,
    high: float = 10.0,
    rng: random.Random | None = None,
) -> dict[str, float]:
    """Assign independent uniform random costs in ``[low, high]``."""
    if low < 0 or high < low:
        raise SchemaError("need 0 <= low <= high")
    rng = rng or random.Random()
    return {name: rng.uniform(low, high) for name in names}


def attribute_cost_map(workflow: Workflow) -> dict[str, float]:
    """Extract the per-attribute hiding costs declared in a workflow schema."""
    return {attr.name: attr.cost for attr in workflow.schema}


def privatization_cost_map(workflow: Workflow) -> dict[str, float]:
    """Extract the per-public-module privatization costs of a workflow."""
    return {
        module.name: module.privatization_cost
        for module in workflow.public_modules
    }


def solution_cost(
    workflow: Workflow,
    hidden_attributes: Iterable[str],
    privatized_modules: Iterable[str] = (),
    attribute_costs: Mapping[str, float] | None = None,
    module_costs: Mapping[str, float] | None = None,
) -> float:
    """Total cost ``c(V̄) + c(P̄)`` of a secure-view solution.

    Costs default to those declared on the workflow's attributes and modules
    but can be overridden, which the optimization benchmarks use to sweep
    cost distributions without rebuilding workflows.  Summed exactly
    (``math.fsum``): set order follows the per-process string hash, so a
    plain float sum could differ in the last bit between processes.
    :meth:`SecureViewProblem.price` and :meth:`SecureViewSolution.cost` sum
    through it.
    """
    attr_costs = (
        attribute_cost_map(workflow) if attribute_costs is None else attribute_costs
    )
    mod_costs = (
        privatization_cost_map(workflow) if module_costs is None else module_costs
    )
    terms = []
    for name in set(hidden_attributes):
        try:
            terms.append(attr_costs[name])
        except KeyError as exc:
            raise SchemaError(f"no cost for attribute {name!r}") from exc
    for name in set(privatized_modules):
        module = workflow.module(name)
        if module.private:
            continue
        terms.append(mod_costs.get(name, module.privatization_cost))
    return math.fsum(terms)
