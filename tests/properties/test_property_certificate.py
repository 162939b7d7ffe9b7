"""Property tests: the Γ-privacy certificate against world enumeration.

``Planner.verify`` certifies a private module by Theorems 4 and 8 when
every public module with a hidden attribute is privatized and the
module's standalone level reaches Γ; any other module falls back to
possible-worlds enumeration (Definitions 5/6).  Enumeration stays the
oracle:

* a module the theorems do not certify has its enumerated level (capped
  at Γ), or ``None`` exactly where enumeration raises the work-limit
  error;
* the shortcut alone never passes a module whose enumerated level is
  below Γ (Lemma 1: a standalone level bounds the workflow level from
  below);
* the verdict is ``False`` when a level falls below Γ, else ``None``
  when a level is undetermined, else ``True``.

Instances are random, chain and layered workflows of 2–4 modules, all
private or half private, at Γ 1–4, plus the five-module problem file
``repro generate --modules 5 --kind set --seed 7`` writes, whose answers
leave modules undetermined.  Views come from solver answers to derived
and baked requirement lists, and from random hidden sets, some with their
forced privatizations and some with a public module left unprivatized.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    SecureViewProblem,
    Workflow,
    standalone_privacy_level,
    workflow_privacy_level,
)
from repro.engine import Planner
from repro.exceptions import (
    InfeasibleError,
    RequirementError,
    SolverError,
    WorkLimitError,
)
from repro.workloads import (
    chain_workflow,
    layered_workflow,
    random_problem,
    random_workflow,
)
from repro.workloads.generators import random_requirements

seeds = st.integers(min_value=0, max_value=10_000)
gammas = st.integers(min_value=1, max_value=4)


@st.composite
def workflows(draw) -> Workflow:
    topology = draw(st.sampled_from(["random", "chain", "layered"]))
    n_modules = draw(st.integers(min_value=2, max_value=4))
    seed = draw(seeds)
    private_fraction = draw(st.sampled_from([1.0, 0.5]))
    if topology == "chain":
        workflow = chain_workflow(
            n_modules, seed=seed, private_fraction=private_fraction
        )
    elif topology == "layered":
        workflow = layered_workflow(
            n_modules // 2, 2, seed=seed, private_fraction=private_fraction
        )
    else:
        workflow = random_workflow(
            n_modules, seed=seed, private_fraction=private_fraction
        )
    assume(workflow.private_modules)
    return workflow


def _enumerated_levels(workflow, solution, gamma) -> dict[str, int | None]:
    """Each private module's ``min(level, Γ)`` by world enumeration, or
    ``None`` where enumeration exceeds its work limit."""
    levels: dict[str, int | None] = {}
    for module in workflow.private_modules:
        try:
            level = workflow_privacy_level(
                workflow,
                module.name,
                solution.visible_attributes,
                hidden_public_modules=solution.privatized_modules,
                stop_at=gamma,
            )
        except WorkLimitError:
            levels[module.name] = None
        else:
            levels[module.name] = min(level, gamma)
    return levels


def _check_against_enumeration(planner, problem, solution) -> None:
    gamma = planner.gamma
    expected = _enumerated_levels(planner.workflow, solution, gamma)
    certificate = planner.verify(solution, problem=problem)
    levels = certificate.module_levels
    assert set(levels) == set(expected)

    forced = problem.required_privatizations(solution.hidden_attributes)
    composes = forced <= solution.privatized_modules
    for module in planner.workflow.private_modules:
        name = module.name
        standalone = standalone_privacy_level(module, solution.visible_attributes)
        if composes and standalone >= gamma:
            # Theorems 4 and 8 certify the module, and the shortcut alone is
            # sound: it never meets an enumerated level below Γ.
            assert levels[name] == gamma, name
            assert expected[name] in (None, gamma), name
        else:
            assert levels[name] == expected[name], name

    known = [level for level in levels.values() if level is not None]
    if any(level < gamma for level in known):
        assert certificate.ok is False
    elif len(known) < len(levels):
        assert certificate.ok is None
    else:
        assert certificate.ok is True


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    workflows(),
    gammas,
    st.sampled_from(["set", "cardinality"]),
    st.booleans(),
    seeds,
    st.data(),
)
def test_solver_answers_certify_as_enumeration_does(
    workflow, gamma, kind, baked, seed, data
):
    """Derived lists come from standalone analysis; baked lists (as
    ``repro generate`` writes them) need not be standalone-private."""
    try:
        if baked:
            requirements = random_requirements(workflow, kind=kind, seed=seed)
            problem = SecureViewProblem(workflow, gamma, requirements)
            planner = Planner.from_problem(problem)
        else:
            planner = Planner(workflow, gamma, kind=kind)
            problem = planner.problem()
    except RequirementError:  # no module list at this Γ
        assume(False)
    solver = data.draw(st.sampled_from([spec.name for spec in planner.solvers()]))
    try:
        solution = planner.solve(solver, seed=0).solution
    except (InfeasibleError, RequirementError, SolverError):  # a refusal
        assume(False)
    _check_against_enumeration(planner, problem, solution)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(workflows(), gammas, seeds, st.booleans(), st.data())
def test_random_views_certify_as_enumeration_does(
    workflow, gamma, seed, privatize_all, data
):
    """Random hidden sets: with their forced privatizations, or with one
    forced public module left unprivatized (Theorem 8's condition fails,
    so every module falls back to enumeration)."""
    names = sorted(workflow.attribute_names)
    hidden = frozenset(data.draw(st.sets(st.sampled_from(names))))
    problem = SecureViewProblem(
        workflow, gamma, random_requirements(workflow, kind="set", seed=seed)
    )
    privatized = problem.required_privatizations(hidden)
    if not privatize_all and privatized:
        kept = data.draw(st.sampled_from(sorted(privatized)))
        privatized = privatized - {kept}
    solution = problem.make_solution(hidden, privatized)
    _check_against_enumeration(Planner.from_problem(problem), problem, solution)


@pytest.mark.parametrize("kind", ["set", "cardinality"])
def test_undetermined_modules_are_where_enumeration_exceeds_its_limit(kind):
    """The problem file ``repro generate --modules 5 --seed 7`` writes: its
    baked lists leave modules the theorems cannot certify and enumeration
    cannot finish, so some answers are undetermined."""
    problem = random_problem(n_modules=5, kind=kind, seed=7)
    planner = Planner.from_problem(problem)
    undetermined = 0
    for spec in planner.solvers():
        try:
            result = planner.solve(spec.name, seed=0)
        except (InfeasibleError, SolverError):  # a refusal
            continue
        _check_against_enumeration(planner, problem, result.solution)
        assert result.certificate == planner.verify(result.solution)
        undetermined += result.certificate.ok is None
    assert undetermined
