"""Cross-solver equivalence property: every registered solver is sound.

For small random workflows (requirement lists derived from standalone
analysis, so Theorems 4/8 guarantee workflow privacy), every registered
solver applicable to the instance must return a solution that

* the instance accepts as feasible,
* the brute-force possible-worlds check :func:`is_gamma_private_workflow`
  certifies as Γ-private, and
* never beats the exact optimum on cost.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import is_gamma_private_workflow
from repro.engine import Planner
from repro.exceptions import InfeasibleError, PrivacyError, SolverError
from repro.workloads import random_workflow

seeds = st.integers(min_value=0, max_value=100)
GAMMA = 2


def _assert_gamma_private(workflow, solution, name):
    try:
        private = is_gamma_private_workflow(
            workflow,
            solution.visible_attributes,
            GAMMA,
            hidden_public_modules=solution.privatized_modules,
        )
    except PrivacyError:
        # World enumeration exceeded the work limit (e.g. the
        # hide-everything baseline); hiding more attributes never reduces
        # privacy (Proposition 1), so no soundness claim is lost by skipping.
        return
    assert private, f"solver {name!r} returned a non-private view"


def _solve_all(planner: Planner):
    """(name, result) for every applicable registered solver, exact first."""
    runs = [("exact", planner.solve(solver="exact"))]
    for spec in planner.solvers():
        if spec.name == "exact":
            continue
        try:
            runs.append((spec.name, planner.solve(solver=spec.name, seed=0)))
        except (InfeasibleError, SolverError):
            # hide_intermediate's policy can leave a module unsatisfied
            # (SolverError); an explicit refusal is sound behaviour.
            assert spec.baseline
    return runs


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_every_applicable_solver_is_gamma_private_and_bounded_by_exact(seed):
    workflow = random_workflow(3, seed=seed)
    planner = Planner(workflow, GAMMA, kind="set")
    problem = planner.problem()
    runs = _solve_all(planner)
    optimum = runs[0][1].cost
    for name, result in runs:
        problem.validate_solution(result.solution)
        _assert_gamma_private(workflow, result.solution, name)
        assert result.cost >= optimum - 1e-6, (
            f"solver {name!r} beat the exact optimum: {result.cost} < {optimum}"
        )
    # The whole cross-solver sweep derived requirement lists exactly once.
    assert planner.cache.stats().derivation_misses == 1


@settings(max_examples=4, deadline=None)
@given(seeds)
def test_cardinality_sweep_equivalence(seed):
    workflow = random_workflow(3, seed=seed)
    try:
        planner = Planner(workflow, GAMMA, kind="cardinality")
        problem = planner.problem()
    except InfeasibleError:
        pytest.skip("no cardinality-safe pair for this workflow")
    runs = _solve_all(planner)
    optimum = runs[0][1].cost
    for name, result in runs:
        problem.validate_solution(result.solution)
        assert result.cost >= optimum - 1e-6, (
            f"solver {name!r} beat the exact optimum: {result.cost} < {optimum}"
        )
