"""One linear-programming path on top of scipy.

The approximation algorithms of Sections 4–5 all write a program, solve its
relaxation and round it; ``exact`` solves the same program as an integer
program.  :class:`LinearProgram` holds a minimization program as a
name→column ``index``, a ``cost`` and an ``upper`` bound per column (every
column is bounded below by 0), and rows ``lower ≤ Σ a·v ≤ upper`` appended
as sparse triplets.  :meth:`LinearProgram.solve` makes one
``scipy.optimize.milp`` call (HiGHS) on one sparse constraint matrix, with
integrality all zeros for the relaxation and all ones for the integer
program.  Building a program needs neither numpy nor scipy; solving one
without them raises :class:`~repro.exceptions.SolverError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

try:  # pragma: no cover - exercised by the no-numpy CI job
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    HAVE_SCIPY = True
except ImportError:  # modelling still works; solving raises SolverError
    HAVE_SCIPY = False

from ..exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.secure_view import SecureViewProblem

__all__ = ["LPSolution", "LinearProgram"]


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
    """A minimization program over named columns bounded by ``[0, upper]``."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.cost: list[float] = []
        self.upper: list[float] = []
        self.row_lower: list[float] = []
        self.row_upper: list[float] = []
        self._rows: list[int] = []
        self._columns: list[int] = []
        self._coefficients: list[float] = []

    def add_variable(self, name: str, cost: float = 0.0, upper: float = 1.0) -> None:
        """Append a column; re-registering the same name is an error."""
        if name in self.index:
            raise SolverError(f"variable {name!r} already declared")
        self.index[name] = len(self.cost)
        self.cost.append(float(cost))
        self.upper.append(float(upper))

    def add_row(
        self,
        coefficients: Mapping[str, float],
        lower: float = -math.inf,
        upper: float = math.inf,
    ) -> None:
        """Append the row ``lower ≤ Σ coefficients[v]·v ≤ upper``."""
        try:
            columns = [self.index[name] for name in coefficients]
        except KeyError as missing:
            raise SolverError(f"row references unknown variable {missing}") from None
        self._rows.extend([len(self.row_lower)] * len(columns))
        self._columns.extend(columns)
        self._coefficients.extend(coefficients.values())
        self.row_lower.append(lower)
        self.row_upper.append(upper)

    def solve(self, integral: bool = False) -> LPSolution:
        """Solve the relaxation, or with ``integral`` the integer program."""
        if not HAVE_SCIPY:
            raise SolverError("solving LPs requires numpy and scipy")
        if not self.cost:
            raise SolverError("cannot solve an LP with no variables")
        matrix = csr_array(
            (self._coefficients, (self._rows, self._columns)),
            shape=(len(self.row_lower), len(self.cost)),
        )
        result = milp(
            self.cost,
            integrality=int(integral),
            bounds=Bounds(0.0, self.upper),
            constraints=LinearConstraint(matrix, self.row_lower, self.row_upper),
        )
        if not result.success:
            return LPSolution("infeasible", math.inf)
        values = dict(zip(self.index, result.x.tolist()))
        return LPSolution("optimal", float(result.fun), values)


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
        solution = memo[key] = build(problem, **options).solve()
    return solution
