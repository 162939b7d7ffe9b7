"""Engine: shared derivation cache across a multi-solver sweep.

Before the engine, every solver invocation in a comparative sweep re-ran
``SecureViewProblem.from_standalone_analysis`` — i.e. the exponential
standalone enumeration of every private module — once per solver.  The
:class:`~repro.engine.Planner` memoizes that derivation in its
:class:`~repro.engine.DerivationCache`, so an N-solver sweep derives once.

The measurement, **sweep sharing**: a two-solver sweep through one
planner performs exactly one requirement derivation (counted by the
cache) and is severalfold faster than the same sweep re-deriving per
solver.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import format_table
from repro.core import SecureViewProblem
from repro.engine import Planner
from repro.workloads import random_workflow

SWEEP_SOLVERS = ("set_lp", "greedy")


def _cold_sweep(workflow, gamma):
    """The pre-engine pattern: each solver call derives requirements itself."""
    costs = []
    for solver in SWEEP_SOLVERS:
        problem = SecureViewProblem.from_standalone_analysis(
            workflow, gamma, kind="set"
        )
        costs.append(Planner.from_problem(problem).solve(solver).cost)
    return costs


def _shared_sweep(workflow, gamma):
    """The engine pattern: one planner, one derivation, N solves."""
    planner = Planner(workflow, gamma, kind="set")
    costs = [planner.solve(solver=solver).cost for solver in SWEEP_SOLVERS]
    return costs, planner.cache.stats()


@pytest.mark.experiment("engine")
def test_bench_shared_derivation_sweep(benchmark, report_sink):
    """A two-solver sweep derives requirements once through a shared Planner."""
    workflow = random_workflow(8, seed=11)
    gamma = 2

    start = time.perf_counter()
    cold_costs = _cold_sweep(workflow, gamma)
    cold_seconds = time.perf_counter() - start

    (shared_costs, stats) = benchmark.pedantic(
        _shared_sweep, args=(workflow, gamma), rounds=1, iterations=1
    )
    start = time.perf_counter()
    _shared_sweep(workflow, gamma)
    shared_seconds = time.perf_counter() - start

    # Same instances, same solvers => identical costs either way.
    assert shared_costs == cold_costs
    # The whole sweep performed exactly one requirement derivation.
    assert stats.derivation_misses == 1
    report_sink.append(
        (
            "Engine: two-solver sweep, per-solver derivation vs shared Planner",
            format_table(
                ["pattern", "derivations", "seconds"],
                [
                    [
                        "per-solver (pre-engine)",
                        len(SWEEP_SOLVERS),
                        f"{cold_seconds:.3f}",
                    ],
                    ["shared Planner", 1, f"{shared_seconds:.3f}"],
                ],
            ),
        )
    )
    # The derivation-count assertion above is the deterministic proof of
    # sharing; the timing rows are reported rather than asserted because a
    # single-round wall-clock comparison is scheduler-noise territory.
