"""The Figure-3 integer program for cardinality constraints.

The Secure-View problem with cardinality constraints is encoded exactly as
in Figure 3 of the paper:

* ``x_b``          — 1 iff attribute ``b`` is hidden,
* ``r_ij``         — 1 iff option ``j`` of module ``m_i`` is the one being
  satisfied,
* ``y_bij``/``z_bij`` — 1 iff attribute ``b`` contributes to the input
  (resp. output) requirement of option ``j`` of module ``m_i``.

Constraints (1)–(7) are reproduced verbatim.  The builder optionally emits
two *weakened* variants that the paper discusses in Appendix B.4 to
motivate the full formulation: dropping constraints (6)–(7) gives an
unbounded integrality gap, and dropping the summations in (4)–(5) gives an
Ω(n) gap.  Both are exposed for the ablation benchmark.

For general workflows (Section 5.2) the builder can also add privatization
variables ``w_m`` for public modules with the coupling constraint
``w_m >= x_b`` for every attribute ``b`` adjacent to ``m`` — constraint (21)
of the general LP (19)–(23).  :func:`hiding_program` writes those
variables and rows once for both this program and the set program of
:mod:`repro.optim.set_lp`.
"""

from __future__ import annotations

from typing import Callable

from ..core.requirements import RequirementList
from ..core.secure_view import SecureViewProblem
from ..exceptions import RequirementError, SolverError
from .lp import LinearProgram

__all__ = [
    "build_cardinality_program",
    "hiding_program",
    "x_var",
    "r_var",
    "w_var",
]

#: LP strength levels for the integrality-gap ablation (Appendix B.4).
STRENGTH_FULL = "full"
STRENGTH_NO_CAP = "no_option_cap"  # drop constraints (6) and (7)
STRENGTH_NO_SUM = "no_summation"  # drop the sums in constraints (4) and (5)
_STRENGTHS = (STRENGTH_FULL, STRENGTH_NO_CAP, STRENGTH_NO_SUM)


def x_var(attribute: str) -> str:
    """LP variable name for "attribute is hidden"."""
    return f"x::{attribute}"


def r_var(module: str, option: int) -> str:
    """LP variable name for "option ``option`` of ``module`` is selected"."""
    return f"r::{module}::{option}"


def w_var(module: str) -> str:
    """LP variable name for "public module ``module`` is privatized"."""
    return f"w::{module}"


def _y_var(module: str, option: int, attribute: str) -> str:
    return f"y::{module}::{option}::{attribute}"


def _z_var(module: str, option: int, attribute: str) -> str:
    return f"z::{module}::{option}::{attribute}"


def hiding_program(
    problem: SecureViewProblem,
    kind: str,
    with_privatization: bool | None,
    requirement_rows: Callable[[LinearProgram, str, RequirementList], None],
) -> LinearProgram:
    """The variables and rows every Secure-View program shares.

    Writes ``x_b`` for every workflow attribute, then ``w_i`` for every
    public module when the program prices privatization (by default
    ``problem.privatizing``), then ``requirement_rows(program, module_name,
    requirement)`` for every private module, then constraint (21).  ``x_b``
    is bounded at 0 for an attribute outside ``problem.hidable``.  Raises
    :class:`~repro.exceptions.InfeasibleError` on an infeasible instance,
    whose relaxation would be infeasible too.
    """
    if problem.constraint_kind != kind:
        raise RequirementError(f"this program requires {kind}-constraint lists")
    problem.require_feasible()
    if with_privatization is None:
        with_privatization = problem.privatizing
    workflow = problem.workflow
    costs = problem.attribute_costs()
    hidable = problem.hidable
    program = LinearProgram()
    for name in workflow.attribute_names:
        program.add_variable(x_var(name), costs[name], 1.0 if name in hidable else 0.0)
    if with_privatization:
        for module in workflow.public_modules:
            program.add_variable(w_var(module.name), module.privatization_cost)
    for module_name, requirement in problem.requirements.items():
        requirement_rows(program, module_name, requirement)
    if with_privatization:
        # Constraint (21): hiding an attribute of a public module privatizes it.
        for module in workflow.public_modules:
            for b in module.attribute_names:
                program.add_row({w_var(module.name): 1.0, x_var(b): -1.0}, lower=0.0)
    return program


def build_cardinality_program(
    problem: SecureViewProblem,
    strength: str = STRENGTH_FULL,
    with_privatization: bool | None = None,
) -> LinearProgram:
    """Build the Figure-3 LP/IP for a cardinality-constraint instance.

    Parameters
    ----------
    problem:
        The Secure-View instance; its requirement lists must be cardinality
        constraints.
    strength:
        One of ``"full"``, ``"no_option_cap"``, ``"no_summation"`` — the
        latter two are the weakened LPs of Appendix B.4, used only in the
        ablation benchmark.
    with_privatization:
        Add ``w_m`` variables for public modules.  Defaults to
        ``problem.privatizing``.
    """
    if strength not in _STRENGTHS:
        raise SolverError(f"unknown LP strength {strength!r}")

    def requirement_rows(program, module_name, requirement):
        module = problem.workflow.module(module_name)
        # (y_bij over the inputs, z_bij over the outputs)
        sides = ((_y_var, module.input_names), (_z_var, module.output_names))
        options = range(len(requirement))
        for j in options:
            program.add_variable(r_var(module_name, j))
            for var, attributes in sides:
                for b in attributes:
                    program.add_variable(var(module_name, j, b))

        # Constraint (1): some option must be selected.
        program.add_row({r_var(module_name, j): 1.0 for j in options}, lower=1.0)
        for j, option in enumerate(requirement):
            r = r_var(module_name, j)
            # Constraints (2)/(3): enough input (output) attributes contribute.
            for (var, attributes), count in zip(sides, (option.alpha, option.beta)):
                row = {var(module_name, j, b): 1.0 for b in attributes}
                row[r] = -float(count)
                program.add_row(row, lower=0.0)
            if strength != STRENGTH_NO_CAP:
                # Constraints (6)/(7): contributions only when the option is selected.
                for var, attributes in sides:
                    for b in attributes:
                        program.add_row(
                            {var(module_name, j, b): 1.0, r: -1.0}, upper=0.0
                        )

        # Constraints (4)/(5): contributions require the attribute to be hidden.
        for var, attributes in sides:
            for b in attributes:
                if strength == STRENGTH_NO_SUM:
                    for j in options:
                        program.add_row(
                            {var(module_name, j, b): 1.0, x_var(b): -1.0}, upper=0.0
                        )
                else:
                    row = {var(module_name, j, b): 1.0 for j in options}
                    row[x_var(b)] = -1.0
                    program.add_row(row, upper=0.0)

    return hiding_program(problem, "cardinality", with_privatization, requirement_rows)
