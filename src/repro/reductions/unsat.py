"""The Theorem-2 construction: Safe-View is co-NP-hard for succinct modules.

Theorem 2 reduces UNSAT to the Safe-View problem: given a CNF formula ``g``
over variables ``x_1 .. x_ℓ``, build the module

    ``m(x_1, ..., x_ℓ, y) = ¬g(x_1, ..., x_ℓ) ∧ ¬y``

with boolean output ``z``.  With hidden attribute ``{y}`` (visible
``{x_1..x_ℓ, z}``) and Γ = 2:

    the view is safe  ⇔  ``g`` is unsatisfiable.

This module provides a tiny CNF representation, random k-CNF generation, a
brute-force satisfiability check (the ground truth), the module
construction, and the safety decision — the tests and the lower-bound
benchmark assert the equivalence above.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.attributes import Attribute, BOOLEAN
from ..core.module import Module
from ..core.privacy import is_standalone_private
from ..exceptions import PrivacyError

__all__ = [
    "CNFFormula",
    "random_cnf",
    "brute_force_satisfiable",
    "unsat_to_module",
    "unsat_safe_view_decision",
]


@dataclass(frozen=True)
class CNFFormula:
    """A CNF formula: a conjunction of clauses of non-zero integer literals.

    Literal ``+i`` means variable ``x_i`` and ``-i`` its negation
    (DIMACS-style, 1-based).
    """

    n_variables: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not clause:
                raise PrivacyError("empty clauses are not allowed")
            for literal in clause:
                if literal == 0 or abs(literal) > self.n_variables:
                    raise PrivacyError(f"literal {literal} out of range")

    def evaluate(self, assignment: Sequence[int] | Mapping[int, int]) -> bool:
        """Evaluate the formula under a 0/1 assignment (1-based indexing)."""
        if isinstance(assignment, Mapping):
            lookup = dict(assignment)
        else:
            lookup = {index + 1: value for index, value in enumerate(assignment)}
        for clause in self.clauses:
            satisfied = False
            for literal in clause:
                value = lookup[abs(literal)]
                if (literal > 0 and value) or (literal < 0 and not value):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True


def random_cnf(
    n_variables: int,
    n_clauses: int,
    clause_width: int = 3,
    seed: int | None = 0,
) -> CNFFormula:
    """A random k-CNF formula (clauses drawn uniformly, no tautologies)."""
    if n_variables < 1:
        raise PrivacyError("random_cnf needs at least one variable")
    rng = random.Random(seed)
    clauses = []
    width = min(clause_width, n_variables)
    for _ in range(n_clauses):
        variables = rng.sample(range(1, n_variables + 1), width)
        clause = tuple(
            variable if rng.random() < 0.5 else -variable for variable in variables
        )
        clauses.append(clause)
    return CNFFormula(n_variables, tuple(clauses))


def brute_force_satisfiable(formula: CNFFormula) -> bool:
    """Ground-truth satisfiability by enumerating all assignments."""
    for assignment in itertools.product((0, 1), repeat=formula.n_variables):
        if formula.evaluate(assignment):
            return True
    return False


def unsat_to_module(formula: CNFFormula) -> Module:
    """The Theorem-2 module ``m(x_1..x_ℓ, y) = ¬g(x) ∧ ¬y`` with output ``z``.

    The module has a succinct description (the formula itself); its relation
    has ``2^(ℓ+1)`` rows and is only materialized by the explicit privacy
    checks, mirroring the role of the data supplier in the proof.
    """
    variable_names = [f"x{i}" for i in range(1, formula.n_variables + 1)]
    inputs = [Attribute(name, BOOLEAN, cost=1.0) for name in variable_names]
    inputs.append(Attribute("y", BOOLEAN, cost=1.0))
    output = Attribute("z", BOOLEAN, cost=1.0)

    def function(values: Mapping[str, int]) -> dict[str, int]:
        assignment = {
            index + 1: int(values[name]) for index, name in enumerate(variable_names)
        }
        g_value = formula.evaluate(assignment)
        return {"z": int((not g_value) and not values["y"])}

    return Module("unsat_gadget", inputs, [output], function)


def unsat_safe_view_decision(formula: CNFFormula, gamma: int = 2) -> bool:
    """Is the view hiding only ``y`` safe for Γ?  Equals UNSAT at Γ = 2.

    If ``g`` is unsatisfiable, then ``z = ¬y`` on every row, so with ``y``
    hidden every input has two candidate outputs.  If some assignment
    satisfies ``g``, its rows force ``z = 0`` for both values of ``y`` and
    the view leaks the output exactly.
    """
    module = unsat_to_module(formula)
    visible = set(module.attribute_names) - {"y"}
    return is_standalone_private(module, visible, gamma)
