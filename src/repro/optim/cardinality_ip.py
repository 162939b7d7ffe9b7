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
    "privatizing",
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


def privatizing(problem: SecureViewProblem) -> bool:
    """Whether a program prices privatization unless told otherwise.

    True exactly when the workflow has public modules and the problem
    allows privatizing them.
    """
    return problem.allow_privatization and bool(problem.workflow.public_modules)


def hiding_program(
    problem: SecureViewProblem,
    kind: str,
    integral: bool,
    with_privatization: bool | None,
    requirement_rows: Callable[[LinearProgram, str, RequirementList], None],
) -> LinearProgram:
    """The variables and rows every Secure-View program shares.

    Writes ``x_b`` for every workflow attribute, then ``w_i`` for every
    public module when the program prices privatization (by default
    :func:`privatizing`), then ``requirement_rows(program, module_name,
    requirement)`` for every private module, then constraint (21).  ``x_b``
    is bounded at 0 for an attribute that may not be hidden: one outside
    ``hidable_attributes`` or, when privatization is disallowed, one of a
    public module (the rule ``SecureViewProblem.is_feasible`` enforces).
    """
    if problem.constraint_kind != kind:
        raise RequirementError(f"this program requires {kind}-constraint lists")
    if with_privatization is None:
        with_privatization = privatizing(problem)
    workflow = problem.workflow
    costs = problem.attribute_costs()
    hidable = set(problem.hidable_attributes)
    if not problem.allow_privatization:
        for module in workflow.public_modules:
            hidable -= set(module.attribute_names)
    program = LinearProgram(name=f"{kind}-constraints")
    for name in workflow.attribute_names:
        program.add_variable(
            x_var(name),
            cost=costs[name],
            upper=1.0 if name in hidable else 0.0,
            integral=integral,
        )
    if with_privatization:
        for module in workflow.public_modules:
            program.add_variable(
                w_var(module.name),
                cost=module.privatization_cost,
                integral=integral,
            )
    for module_name, requirement in problem.requirements.items():
        requirement_rows(program, module_name, requirement)
    if with_privatization:
        # Constraint (21): hiding an attribute of a public module privatizes it.
        for module in workflow.public_modules:
            for b in module.attribute_names:
                program.add_constraint(
                    {w_var(module.name): 1.0, x_var(b): -1.0},
                    ">=",
                    0.0,
                    name=f"privatize[{module.name},{b}]",
                )
    return program


def build_cardinality_program(
    problem: SecureViewProblem,
    integral: bool = False,
    strength: str = STRENGTH_FULL,
    with_privatization: bool | None = None,
) -> LinearProgram:
    """Build the Figure-3 LP/IP for a cardinality-constraint instance.

    Parameters
    ----------
    problem:
        The Secure-View instance; its requirement lists must be cardinality
        constraints.
    integral:
        When true, all variables are declared integral (the exact IP).
    strength:
        One of ``"full"``, ``"no_option_cap"``, ``"no_summation"`` — the
        latter two are the weakened LPs of Appendix B.4, used only in the
        ablation benchmark.
    with_privatization:
        Add ``w_m`` variables for public modules.  Defaults to true exactly
        when the workflow has public modules and the problem allows
        privatization.
    """
    if strength not in _STRENGTHS:
        raise SolverError(f"unknown LP strength {strength!r}")

    def requirement_rows(program, module_name, requirement):
        module = problem.workflow.module(module_name)
        inputs = module.input_names
        outputs = module.output_names
        options = list(requirement)

        for j in range(len(options)):
            program.add_variable(r_var(module_name, j), integral=integral)
            for b in inputs:
                program.add_variable(_y_var(module_name, j, b), integral=integral)
            for b in outputs:
                program.add_variable(_z_var(module_name, j, b), integral=integral)

        # Constraint (1): some option must be selected.
        program.add_constraint(
            {r_var(module_name, j): 1.0 for j in range(len(options))},
            ">=",
            1.0,
            name=f"select[{module_name}]",
        )
        for j, option in enumerate(options):
            # Constraint (2): enough input attributes contribute.
            coeffs = {_y_var(module_name, j, b): 1.0 for b in inputs}
            coeffs[r_var(module_name, j)] = -float(option.alpha)
            program.add_constraint(coeffs, ">=", 0.0, name=f"in[{module_name},{j}]")

            # Constraint (3): enough output attributes contribute.
            coeffs = {_z_var(module_name, j, b): 1.0 for b in outputs}
            coeffs[r_var(module_name, j)] = -float(option.beta)
            program.add_constraint(coeffs, ">=", 0.0, name=f"out[{module_name},{j}]")

            if strength != STRENGTH_NO_CAP:
                # Constraints (6)/(7): contributions only when the option is selected.
                for b in inputs:
                    program.add_constraint(
                        {_y_var(module_name, j, b): 1.0, r_var(module_name, j): -1.0},
                        "<=",
                        0.0,
                        name=f"cap_in[{module_name},{j},{b}]",
                    )
                for b in outputs:
                    program.add_constraint(
                        {_z_var(module_name, j, b): 1.0, r_var(module_name, j): -1.0},
                        "<=",
                        0.0,
                        name=f"cap_out[{module_name},{j},{b}]",
                    )

        # Constraints (4)/(5): contributions require the attribute to be hidden.
        for b in inputs:
            if strength == STRENGTH_NO_SUM:
                for j in range(len(options)):
                    program.add_constraint(
                        {_y_var(module_name, j, b): 1.0, x_var(b): -1.0},
                        "<=",
                        0.0,
                        name=f"hide_in[{module_name},{j},{b}]",
                    )
            else:
                coeffs = {
                    _y_var(module_name, j, b): 1.0 for j in range(len(options))
                }
                coeffs[x_var(b)] = -1.0
                program.add_constraint(
                    coeffs, "<=", 0.0, name=f"hide_in[{module_name},{b}]"
                )
        for b in outputs:
            if strength == STRENGTH_NO_SUM:
                for j in range(len(options)):
                    program.add_constraint(
                        {_z_var(module_name, j, b): 1.0, x_var(b): -1.0},
                        "<=",
                        0.0,
                        name=f"hide_out[{module_name},{j},{b}]",
                    )
            else:
                coeffs = {
                    _z_var(module_name, j, b): 1.0 for j in range(len(options))
                }
                coeffs[x_var(b)] = -1.0
                program.add_constraint(
                    coeffs, "<=", 0.0, name=f"hide_out[{module_name},{b}]"
                )

    return hiding_program(
        problem, "cardinality", integral, with_privatization, requirement_rows
    )
