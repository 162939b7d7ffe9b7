"""Uniform result types for the Secure-View engine.

Every solver in the registry — exact, LP roundings, greedy, baselines — is
invoked through ``Planner.solve`` and answers with the same
:class:`SolveResult`, so callers (CLI, experiment harness, benchmarks) do
not depend on per-algorithm signatures.  Every result carries a
:class:`PrivacyCertificate`: evidence that the returned view really is
Γ-private, by Theorems 4 and 8 from the module packs in the planner's
shared :class:`~repro.engine.cache.DerivationCache`, or by possible-worlds
enumeration for a module the theorems cannot certify
(:meth:`~repro.engine.planner.Planner.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.view import SecureViewSolution
from .cache import CacheStats

__all__ = ["PrivacyCertificate", "SolveResult"]


@dataclass(frozen=True)
class PrivacyCertificate:
    """Evidence that a solution's view is Γ-private (Definition 6).

    ``module_levels`` maps each private module to its Γ-workflow-privacy
    level, the smallest out-set size over its inputs, capped at Γ: a
    reported level of Γ means "at least Γ".  A level is ``None`` when
    the module is undetermined: the theorems do not certify it and world
    enumeration would exceed its work limit.  ``ok`` is ``True`` when
    every level reaches Γ, ``False`` when one falls below it, and
    ``None`` otherwise.
    """

    gamma: int
    ok: bool | None
    module_levels: Mapping[str, int | None]

    @property
    def weakest_module(self) -> str | None:
        """The module with the lowest determined level, if any."""
        levels = self.module_levels
        known = [name for name in levels if levels[name] is not None]
        return min(known, key=levels.__getitem__) if known else None

    def as_dict(self) -> dict[str, object]:
        return {
            "gamma": self.gamma,
            "ok": self.ok,
            "module_levels": dict(self.module_levels),
        }


@dataclass(frozen=True)
class SolveResult:
    """What every engine solve returns, whichever algorithm ran.

    Attributes
    ----------
    solver:
        Resolved registry name of the algorithm that ran.
    requested:
        The name the caller asked for (``"auto"`` before resolution).
    solution:
        The underlying :class:`SecureViewSolution` (hidden attributes,
        privatized modules, solver ``meta``).
    cost:
        ``c(V̄) + c(P̄)`` under the costs the solve used.
    guarantee:
        Human-readable approximation guarantee for this instance
        (``"optimal"``, ``"O(log n) (Thm 5)"``, ``"l_max = 3 (Thm 6)"``, ...).
    seconds:
        Wall-clock time of the solver call (excluding derivation, which is
        shared and cached).
    certificate:
        The Γ-privacy certificate of the solution's view.
    cache_stats:
        Snapshot of the planner's derivation cache after this solve.
    """

    solver: str
    requested: str
    solution: SecureViewSolution
    cost: float
    guarantee: str
    seconds: float
    certificate: PrivacyCertificate
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def hidden_attributes(self) -> frozenset[str]:
        return self.solution.hidden_attributes

    @property
    def privatized_modules(self) -> frozenset[str]:
        return self.solution.privatized_modules

    @property
    def meta(self) -> dict:
        return self.solution.meta

    def as_record(self) -> dict[str, object]:
        """Flat record for the reporting layer (one row per solve)."""
        record: dict[str, object] = {
            "method": self.solver,
            "cost": self.cost,
            "seconds": self.seconds,
            "hidden": len(self.hidden_attributes),
            "privatized": len(self.privatized_modules),
        }
        if self.guarantee:
            record["guarantee"] = self.guarantee
        record["verified"] = self.certificate.ok
        return record
