"""Experiment harness: solver comparisons and parameter sweeps.

This is the glue the benchmarks and EXPERIMENTS.md use: run several solvers
on the same Secure-View instance (optionally against the exact optimum),
repeat randomized solvers over seeds, and sweep instance parameters while
collecting flat records that the reporting layer renders.

Since PR 3 both :func:`compare_solvers` and :func:`sweep` are built on the
parallel sweep executor (:func:`repro.engine.run_sweep`): pass ``n_jobs=``
to fan the grid out over worker processes and ``store=`` to persist (and
reuse) derivations and solve results across runs.  ``n_jobs=1`` runs the
*same* cell runner in-process, so serial and parallel invocations produce
identical records (modulo timings).  Within one instance all solver runs
share one planner, so requirement derivation and module compilation are
computed once per instance rather than once per solver run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..core.secure_view import SecureViewProblem
from ..core.view import SecureViewSolution
from ..engine import Planner, SweepInstance, SweepSpec, run_sweep
from ..engine.store import DerivationStore
from ..exceptions import ProvenanceError
from ..workloads.serialization import problem_to_dict
from .metrics import approximation_ratio, solution_summary

__all__ = ["SolverRun", "compare_solvers", "sweep", "time_solver"]


@dataclass(frozen=True)
class SolverRun:
    """One solver execution: its solution, cost, wall time and (optionally) ratio."""

    method: str
    solution: SecureViewSolution | None
    cost: float
    seconds: float
    ratio: float | None = None
    error: str = ""
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.solution is not None

    def as_record(self) -> dict[str, object]:
        record: dict[str, object] = {
            "method": self.method,
            "cost": self.cost,
            "seconds": self.seconds,
        }
        if self.ratio is not None:
            record["ratio"] = self.ratio
        if self.error:
            record["error"] = self.error
        record.update(self.extra)
        return record


def time_solver(
    problem: SecureViewProblem,
    method: str,
    planner: Planner | None = None,
    **kwargs,
) -> SolverRun:
    """Run one solver, timing it and tolerating solver-level failures.

    Pass a ``planner`` (wrapping the same problem) to share its derivation
    cache across runs; one is created ad hoc otherwise.
    """
    if planner is None:
        planner = Planner.from_problem(problem)
    start = time.perf_counter()
    try:
        result = planner.solve(solver=method, **kwargs)
    except ProvenanceError as exc:
        return SolverRun(
            method=method,
            solution=None,
            cost=float("inf"),
            seconds=time.perf_counter() - start,
            error=str(exc),
        )
    return SolverRun(
        method=method,
        solution=result.solution,
        cost=result.cost,
        seconds=result.seconds,
        extra={"solver": result.solver},
    )


def _is_randomized(planner: Planner, method: str) -> bool:
    """Does the method (after ``auto`` resolution) take rounding randomness?"""
    try:
        return planner.resolve(method).randomized
    except ProvenanceError:
        return False


def _solver_seed_pairs(
    planner: Planner,
    methods: Sequence[str],
    seeds: Sequence[int],
    include_exact: bool,
) -> tuple[tuple[str, int | None], ...]:
    """The (solver, seed) cells one comparison runs, in report order."""
    pairs: list[tuple[str, int | None]] = []
    if include_exact:
        pairs.append(("exact", None))
    for method in methods:
        if method == "exact" and include_exact:
            continue
        if _is_randomized(planner, method):
            pairs.extend((method, seed) for seed in seeds)
        else:
            pairs.append((method, None))
    return tuple(pairs)


def _summary_from_cell(
    problem: SecureViewProblem,
    record: Mapping[str, object],
    optimum: float | None,
) -> dict[str, object]:
    """Map one executor cell record to the classic comparison-record shape."""
    if "error" in record:
        summary: dict[str, object] = {
            "method": str(record["solver"]),
            "cost": float("inf"),
            "error": str(record["error"]),
            "seconds": float(record.get("seconds", 0.0)),
        }
    else:
        hidden = len(record["hidden_attributes"])
        total = len(problem.workflow.attribute_names)
        summary = {
            "method": str(record["method"]),
            "cost": record["cost"],
            "hidden_attributes": hidden,
            "privatized_modules": len(record["privatized_modules"]),
            "hidden_fraction": hidden / total if total else 0.0,
            "n_modules": len(problem.workflow),
            "n_attributes": total,
            "gamma_sharing": problem.workflow.data_sharing_degree(),
            "lmax": problem.lmax,
        }
        if optimum is not None:
            summary["optimum"] = optimum
            summary["ratio"] = approximation_ratio(float(record["cost"]), optimum)
        summary["seconds"] = record["seconds"]
    if record.get("seed") is not None:
        summary["seed"] = record["seed"]
    return summary


def _comparison_records(
    problem: SecureViewProblem,
    cell_records: Sequence[Mapping[str, object]],
    include_exact: bool,
) -> list[dict[str, object]]:
    optimum: float | None = None
    if include_exact and cell_records and "error" not in cell_records[0]:
        optimum = float(cell_records[0]["cost"])
    return [
        _summary_from_cell(problem, record, optimum) for record in cell_records
    ]


def compare_solvers(
    problem: SecureViewProblem,
    methods: Sequence[str],
    seeds: Sequence[int] = (0,),
    include_exact: bool = True,
    planner: Planner | None = None,
    n_jobs: int = 1,
    store: DerivationStore | str | None = None,
) -> list[dict[str, object]]:
    """Run several solvers on one instance and report costs / ratios.

    Randomized solvers (per registry metadata) are repeated once per seed
    and reported seed by seed; deterministic solvers run once.  When
    ``include_exact`` is true the exact IP optimum is computed first and
    every record carries its approximation ratio.  All runs share one
    planner (one requirement derivation); ``n_jobs > 1`` fans the runs out
    over worker processes through the sweep executor and ``store`` persists
    the derivations either way.

    ``n_jobs=1`` (and any call passing an explicit ``planner``) stays
    in-process on one planner cache — no serialization happens, which also
    keeps instances with high-arity modules viable (shipping an instance to
    a worker tabulates its functionality, which is exponential in module
    arity).  The in-process and executor paths produce identical records
    (modulo timings).
    """
    if planner is not None or n_jobs == 1:
        if planner is None:
            planner = Planner.from_problem(problem, store=store)
        return _compare_in_process(
            problem, methods, seeds, include_exact, planner
        )
    probe = Planner.from_problem(problem)
    pairs = _solver_seed_pairs(probe, methods, seeds, include_exact)
    instance = SweepInstance("instance", "problem", problem_to_dict(problem))
    spec = SweepSpec(instances=(instance,), solver_seed_pairs=pairs)
    report = run_sweep(spec, n_jobs=n_jobs, store=store)
    return _comparison_records(problem, report.records, include_exact)


def _compare_in_process(
    problem: SecureViewProblem,
    methods: Sequence[str],
    seeds: Sequence[int],
    include_exact: bool,
    planner: Planner,
) -> list[dict[str, object]]:
    """The legacy single-process path, sharing the caller's planner cache."""
    optimum: float | None = None
    records: list[dict[str, object]] = []
    if include_exact:
        exact_run = time_solver(problem, "exact", planner=planner)
        if exact_run.succeeded:
            optimum = exact_run.cost
            exact_record = solution_summary(problem, exact_run.solution, optimum)
        else:
            exact_record = {
                "method": "exact",
                "cost": float("inf"),
                "error": exact_run.error,
            }
        exact_record["seconds"] = exact_run.seconds
        records.append(exact_record)

    for method in methods:
        if method == "exact" and include_exact:
            continue
        method_seeds: Sequence[int | None]
        if _is_randomized(planner, method):
            method_seeds = list(seeds)
        else:
            method_seeds = [None]
        for seed in method_seeds:
            kwargs = {"seed": seed} if seed is not None else {}
            run = time_solver(problem, method, planner=planner, **kwargs)
            if run.succeeded:
                record = solution_summary(problem, run.solution, optimum)
            else:
                record = {"method": method, "cost": float("inf"), "error": run.error}
            record["seconds"] = run.seconds
            if seed is not None:
                record["seed"] = seed
            records.append(record)
    return records


def sweep(
    problem_factory: Callable[[object], SecureViewProblem],
    parameter_values: Iterable[object],
    methods: Sequence[str],
    seeds: Sequence[int] = (0,),
    include_exact: bool = True,
    parameter_name: str = "param",
    n_jobs: int = 1,
    store: DerivationStore | str | None = None,
) -> list[dict[str, object]]:
    """Run :func:`compare_solvers` across a parameter sweep.

    ``problem_factory(value)`` builds the instance for each parameter value;
    every record is tagged with the parameter so the reporting layer can
    group by it.  With ``n_jobs > 1`` the whole grid — every (instance,
    solver, seed) cell — goes through the parallel sweep executor in one
    shot, parallelizing across parameter values *and* solvers at once while
    each instance still pays its requirement derivation exactly once.

    ``n_jobs=1`` runs each comparison in-process without serializing the
    instances (required for workloads with high-arity modules, whose
    tabulated functionality is exponential); the records are identical to
    the executor path's modulo timings.
    """
    if n_jobs == 1:
        records: list[dict[str, object]] = []
        for value in parameter_values:
            problem = problem_factory(value)
            for record in compare_solvers(
                problem,
                methods,
                seeds=seeds,
                include_exact=include_exact,
                store=store,
            ):
                records.append({parameter_name: value, **record})
        return records

    instances: list[SweepInstance] = []
    pairs_by_label: dict[str, tuple[tuple[str, int | None], ...]] = {}
    problems_by_label: dict[str, SecureViewProblem] = {}
    values_by_label: dict[str, object] = {}
    for position, value in enumerate(parameter_values):
        problem = problem_factory(value)
        label = f"{parameter_name}={value!r}#{position}"
        probe = Planner.from_problem(problem)
        instances.append(SweepInstance(label, "problem", problem_to_dict(problem)))
        pairs_by_label[label] = _solver_seed_pairs(
            probe, methods, seeds, include_exact
        )
        problems_by_label[label] = problem
        values_by_label[label] = value

    spec = SweepSpec(
        instances=tuple(instances), solver_seed_pairs=pairs_by_label
    )
    report = run_sweep(spec, n_jobs=n_jobs, store=store)

    by_label: dict[str, list[dict[str, object]]] = {}
    for record in report.records:
        by_label.setdefault(record["workflow"], []).append(record)

    records: list[dict[str, object]] = []
    for instance in instances:
        label = instance.label
        problem = problems_by_label[label]
        for record in _comparison_records(
            problem, by_label.get(label, []), include_exact
        ):
            records.append({parameter_name: values_by_label[label], **record})
    return records
