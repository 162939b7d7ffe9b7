"""A thin linear/integer-programming layer on top of scipy.

The approximation algorithms of Sections 4–5 are all "write an LP relaxation,
solve it, round it".  :class:`LinearProgram` provides the small amount of
bookkeeping those algorithms need — named variables, named constraints, a
minimization objective — and solves either the continuous relaxation
(``scipy.optimize.linprog``/HiGHS) or the integer program itself
(``scipy.optimize.milp``), which the exact baseline uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    HAVE_SCIPY = True
except ImportError:  # modelling still works; solving raises SolverError
    np = None  # type: ignore[assignment]
    Bounds = LinearConstraint = linprog = milp = None
    HAVE_SCIPY = False

from ..exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.secure_view import SecureViewProblem

__all__ = ["Variable", "Constraint", "LPSolution", "LinearProgram"]


@dataclass(frozen=True)
class Variable:
    """A decision variable with bounds, objective coefficient and integrality."""

    name: str
    index: int
    cost: float
    lower: float
    upper: float
    integral: bool


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum coeffs[v] * v  (sense)  rhs``."""

    name: str
    coefficients: Mapping[str, float]
    sense: str  # one of "<=", ">=", "=="
    rhs: float


@dataclass
class LPSolution:
    """Result of solving a :class:`LinearProgram`."""

    status: str
    objective: float
    values: dict[str, float] = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, name: str) -> float:
        return self.values[name]


class LinearProgram:
    """A minimization LP/IP with named variables and constraints."""

    SENSES = ("<=", ">=", "==")

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._constraints: list[Constraint] = []

    # -- construction -----------------------------------------------------------
    def add_variable(
        self,
        name: str,
        cost: float = 0.0,
        lower: float = 0.0,
        upper: float = 1.0,
        integral: bool = False,
    ) -> Variable:
        """Register a variable; re-registering the same name is an error."""
        if name in self._variables:
            raise SolverError(f"variable {name!r} already declared")
        variable = Variable(
            name=name,
            index=len(self._variables),
            cost=float(cost),
            lower=float(lower),
            upper=float(upper),
            integral=integral,
        )
        self._variables[name] = variable
        return variable

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    def add_constraint(
        self,
        coefficients: Mapping[str, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Register a constraint over previously declared variables."""
        if sense not in self.SENSES:
            raise SolverError(f"unknown constraint sense {sense!r}")
        unknown = set(coefficients) - set(self._variables)
        if unknown:
            raise SolverError(
                f"constraint references unknown variables {sorted(unknown)!r}"
            )
        constraint = Constraint(
            name=name or f"c{len(self._constraints)}",
            coefficients=dict(coefficients),
            sense=sense,
            rhs=float(rhs),
        )
        self._constraints.append(constraint)
        return constraint

    # -- introspection -----------------------------------------------------------
    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables.values())

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    # -- matrix assembly -----------------------------------------------------------
    def _objective_vector(self) -> np.ndarray:
        cost = np.zeros(len(self._variables))
        for variable in self._variables.values():
            cost[variable.index] = variable.cost
        return cost

    def _constraint_matrices(self):
        n = len(self._variables)
        a_ub: list[np.ndarray] = []
        b_ub: list[float] = []
        a_eq: list[np.ndarray] = []
        b_eq: list[float] = []
        for constraint in self._constraints:
            row = np.zeros(n)
            for var_name, coef in constraint.coefficients.items():
                row[self._variables[var_name].index] += coef
            if constraint.sense == "<=":
                a_ub.append(row)
                b_ub.append(constraint.rhs)
            elif constraint.sense == ">=":
                a_ub.append(-row)
                b_ub.append(-constraint.rhs)
            else:
                a_eq.append(row)
                b_eq.append(constraint.rhs)
        return a_ub, b_ub, a_eq, b_eq

    def _bounds(self) -> list[tuple[float, float]]:
        bounds = [(0.0, 1.0)] * len(self._variables)
        for variable in self._variables.values():
            bounds[variable.index] = (variable.lower, variable.upper)
        return bounds

    def _wrap_solution(
        self, status: str, objective: float, x: np.ndarray | None
    ) -> LPSolution:
        values: dict[str, float] = {}
        if x is not None:
            for variable in self._variables.values():
                values[variable.name] = float(x[variable.index])
        return LPSolution(status=status, objective=float(objective), values=values)

    # -- solving ----------------------------------------------------------------------
    def solve_relaxation(self) -> LPSolution:
        """Solve the continuous relaxation (all variables within their bounds)."""
        if not HAVE_SCIPY:
            raise SolverError("solving LPs requires numpy and scipy")
        if not self._variables:
            raise SolverError("cannot solve an LP with no variables")
        cost = self._objective_vector()
        a_ub, b_ub, a_eq, b_eq = self._constraint_matrices()
        result = linprog(
            cost,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=self._bounds(),
            method="highs",
        )
        if not result.success:
            return self._wrap_solution("infeasible", float("inf"), None)
        return self._wrap_solution("optimal", result.fun, result.x)

    def solve_integer(self) -> LPSolution:
        """Solve the (mixed-)integer program with scipy's HiGHS MILP backend."""
        if not HAVE_SCIPY:
            raise SolverError("solving IPs requires numpy and scipy")
        if not self._variables:
            raise SolverError("cannot solve an IP with no variables")
        cost = self._objective_vector()
        n = len(self._variables)
        constraints = []
        for constraint in self._constraints:
            row = np.zeros(n)
            for var_name, coef in constraint.coefficients.items():
                row[self._variables[var_name].index] += coef
            if constraint.sense == "<=":
                constraints.append(LinearConstraint(row, -np.inf, constraint.rhs))
            elif constraint.sense == ">=":
                constraints.append(LinearConstraint(row, constraint.rhs, np.inf))
            else:
                constraints.append(
                    LinearConstraint(row, constraint.rhs, constraint.rhs)
                )
        integrality = np.zeros(n)
        lower = np.zeros(n)
        upper = np.ones(n)
        for variable in self._variables.values():
            integrality[variable.index] = 1.0 if variable.integral else 0.0
            lower[variable.index] = variable.lower
            upper[variable.index] = variable.upper
        result = milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
        )
        if not result.success or result.x is None:
            return self._wrap_solution("infeasible", float("inf"), None)
        return self._wrap_solution("optimal", result.fun, result.x)

    def solve(self, relaxation: bool = True) -> LPSolution:
        """Solve either the relaxation or the integer program."""
        return self.solve_relaxation() if relaxation else self.solve_integer()

    # -- reporting -------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable LP listing (used by examples and debugging)."""
        lines = [f"minimize  " + " + ".join(
            f"{v.cost:g}*{v.name}" for v in self._variables.values() if v.cost
        )]
        for constraint in self._constraints:
            terms = " + ".join(
                f"{coef:g}*{name}" for name, coef in constraint.coefficients.items()
            )
            lines.append(
                f"  {constraint.name}: {terms} {constraint.sense} {constraint.rhs:g}"
            )
        return "\n".join(lines)


def problem_relaxation(
    problem: "SecureViewProblem", build: Callable, **options
) -> LPSolution:
    """The relaxation of ``build(problem, **options)``, solved once per problem.

    The memo is keyed by the program built: the builder and ``options``,
    which callers pass resolved (``with_privatization`` as a bool, never
    ``None``), so one program is one key and is solved once.  A relaxation
    depends on the problem only (the set LP takes no seed; Algorithm 1 uses
    its seed only to round), and no field of a problem changes after
    construction, so the solution is memoized on the problem and every
    later seed reuses it.  Callers only read it.  No lock: two threads
    racing on one problem both solve and store equal values.
    """
    memo = problem._relaxations
    key = (build.__name__, *sorted(options.items()))
    solution = memo.get(key)
    if solution is None:
        solution = memo[key] = build(problem, **options).solve_relaxation()
    return solution
