"""Solver registry for the Secure-View engine.

A :class:`SolverSpec` describes one algorithm — its callable, which
constraint kind it handles (set / cardinality / any), which workflow scope
it supports (all-private / general / any), whether it is randomized or
exact, its approximation guarantee, and a ``cost_rank`` the planner uses to
auto-select the cheapest applicable algorithm.  Registration is by
decorator::

    @register_solver("cardinality-lp", constraints="cardinality", scope="all-private")
    def my_solver(problem, seed=None):
        ...

The default registry is populated by :mod:`repro.engine.adapters` with every
algorithm exported from :mod:`repro.optim` plus the exhaustive and baseline
solvers.  It is the only map from names to algorithms:
``Planner.solve(solver=<name>)`` reaches each of them through it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..core.secure_view import SecureViewProblem
from ..exceptions import SolverError

__all__ = [
    "SolverSpec",
    "SolverRegistry",
    "default_registry",
    "register_solver",
]

CONSTRAINT_KINDS = ("set", "cardinality", "any")
SCOPES = ("all-private", "general", "any")
# Randomness options, dropped silently for a solver that does not take them.
_AMBIENT = frozenset({"seed", "rng"})


@dataclass(frozen=True)
class SolverSpec:
    """Metadata and callable for one registered Secure-View algorithm."""

    name: str
    fn: Callable[..., object]
    constraints: str = "any"
    scope: str = "any"
    randomized: bool = False
    exact: bool = False
    baseline: bool = False
    guarantee: str | Callable[[SecureViewProblem], str] = ""
    cost_rank: int = 50
    summary: str = ""
    accepts: frozenset[str] = field(default_factory=frozenset)
    accepts_any: bool = False

    def __post_init__(self) -> None:
        if self.constraints not in CONSTRAINT_KINDS:
            raise SolverError(
                f"solver {self.name!r}: constraints must be one of {CONSTRAINT_KINDS}"
            )
        if self.scope not in SCOPES:
            raise SolverError(f"solver {self.name!r}: scope must be one of {SCOPES}")

    def takes(self, kind: str) -> bool:
        """Does this algorithm take ``kind`` requirement lists?"""
        return self.constraints in ("any", kind)

    def applicable(self, problem: SecureViewProblem) -> bool:
        """Can this algorithm run on the instance (by declared metadata)?"""
        if not self.takes(problem.constraint_kind):
            return False
        # Where hiding may force privatization the solver must price and
        # emit P̄, which all-private solvers do not.  With privatization
        # disallowed, the problem's hidable set leaves out every attribute
        # of a public module, so nothing is privatized and every scope runs.
        return self.scope != "all-private" or not problem.privatizing

    def guarantee_for(self, problem: SecureViewProblem) -> str:
        """The (instance-dependent) approximation guarantee as text."""
        if callable(self.guarantee):
            return self.guarantee(problem)
        return self.guarantee

    def accepted_kwargs(self, kwargs: dict[str, object]) -> dict[str, object]:
        """Filter keyword arguments down to what the callable accepts.

        Ambient parameters (randomness) are dropped silently when the solver
        does not take them; any other unsupported option is an error so
        typos don't degrade into silently ignored settings.
        """
        if self.accepts_any:
            return dict(kwargs)
        kept: dict[str, object] = {}
        for key, value in kwargs.items():
            if key in self.accepts:
                kept[key] = value
            elif key not in _AMBIENT:
                raise SolverError(
                    f"solver {self.name!r} does not accept option {key!r}; "
                    f"accepted: {sorted(self.accepts)}"
                )
        return kept

    def as_record(self) -> dict[str, object]:
        """Flat record for `repro engine list-solvers` and reports."""
        return {
            "name": self.name,
            "constraints": self.constraints,
            "scope": self.scope,
            "randomized": self.randomized,
            "exact": self.exact,
            "baseline": self.baseline,
            "guarantee": (
                "instance-dependent" if callable(self.guarantee) else self.guarantee
            ),
            "summary": self.summary,
        }


def _introspect(fn: Callable[..., object]) -> tuple[frozenset[str], bool]:
    """Keyword parameters a solver callable accepts (beyond the problem)."""
    params = inspect.signature(fn).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    names = frozenset(
        name
        for i, (name, p) in enumerate(params.items())
        if i > 0
        and p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    )
    return names, accepts_any


class SolverRegistry:
    """Name → :class:`SolverSpec` mapping with decorator registration."""

    def __init__(self) -> None:
        self._specs: dict[str, SolverSpec] = {}
        self._aliases: dict[str, str] = {}

    # -- registration -----------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        constraints: str = "any",
        scope: str = "any",
        randomized: bool = False,
        exact: bool = False,
        baseline: bool = False,
        guarantee: str | Callable[[SecureViewProblem], str] = "",
        cost_rank: int = 50,
        summary: str = "",
        aliases: Sequence[str] = (),
    ) -> Callable[[Callable[..., object]], Callable[..., object]]:
        """Decorator registering a solver callable under ``name``."""

        def decorator(fn: Callable[..., object]) -> Callable[..., object]:
            if name in self._specs or name in self._aliases:
                raise SolverError(f"solver {name!r} is already registered")
            accepts, accepts_any = _introspect(fn)
            self._specs[name] = SolverSpec(
                name=name,
                fn=fn,
                constraints=constraints,
                scope=scope,
                randomized=randomized,
                exact=exact,
                baseline=baseline,
                guarantee=guarantee,
                cost_rank=cost_rank,
                summary=summary or ((inspect.getdoc(fn) or "").splitlines() or [""])[0],
                accepts=accepts,
                accepts_any=accepts_any,
            )
            for alias in aliases:
                if alias in self._specs or alias in self._aliases:
                    raise SolverError(f"solver alias {alias!r} is already registered")
                self._aliases[alias] = name
            return fn

        return decorator

    # -- lookup -----------------------------------------------------------------
    def get(self, name: str) -> SolverSpec:
        canonical = self._aliases.get(name, name)
        try:
            return self._specs[canonical]
        except KeyError as exc:
            raise SolverError(
                f"unknown solver {name!r}; available: {self.names()}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self, include_aliases: bool = True) -> list[str]:
        names = set(self._specs)
        if include_aliases:
            names |= set(self._aliases)
        return sorted(names)

    def specs(self) -> list[SolverSpec]:
        """All specs, auto-selection order (cheapest rank first)."""
        return sorted(self._specs.values(), key=lambda s: (s.cost_rank, s.name))

    def applicable(self, problem: SecureViewProblem) -> list[SolverSpec]:
        """Specs whose metadata says they can run on the instance."""
        return [spec for spec in self.specs() if spec.applicable(problem)]

    def select(self, problem: SecureViewProblem) -> SolverSpec:
        """Auto-selection: the cheapest applicable non-baseline algorithm.

        Baselines never win ``auto`` (they carry no guarantee) and the exact
        solvers rank last so approximation algorithms are preferred on
        anything but trivially small instances.
        """
        for spec in self.specs():
            if spec.baseline:
                continue
            if spec.applicable(problem):
                return spec
        raise SolverError(
            f"no registered solver is applicable to this instance "
            f"(kind={problem.constraint_kind!r}, "
            f"public modules={len(problem.workflow.public_modules)}, "
            f"privatization={'allowed' if problem.allow_privatization else 'disallowed'})"
        )


_DEFAULT = SolverRegistry()


def default_registry() -> SolverRegistry:
    """The process-wide registry, populated by :mod:`repro.engine.adapters`."""
    return _DEFAULT


def register_solver(name: str, **metadata):
    """Decorator registering a solver in the default registry."""
    return _DEFAULT.register(name, **metadata)
