"""The solver contract: every registered solver on one mixed corpus.

The corpus covers random, chain and layered topologies, private fractions
1.0 and 0.5, privatization allowed and disallowed, a seeded 80% hidable
subset of each instance, Examples 5 and 7, and instances of the paper's
reductions from set cover (Theorems 5 and 9), label cover (Figure 4, and
Figure 6 for Theorem 10) and vertex cover (Figure 5).  Every registered
solver runs on every instance, with and without local search, and:

* each answer validates; otherwise the solver raises ``InfeasibleError``
  or ``SolverError``, never ``RequirementError``;
* with privatization disallowed, no answer privatizes a module;
* where ``exact`` raises ``InfeasibleError``, every solver of the
  instance's constraint kind raises it too;
* where ``exact`` answers, each applicable solver whose guarantee names a
  factor (ℓ_max, Theorem 6 and Section 5.2; γ+1, Theorem 7; 1 for the
  exact solvers) stays within that factor of the optimum;
* on a reduction's instance, ``exact``'s cost is the source optimum
  (``exact_set_cover``, ``exact_label_cover``, ``exact_vertex_cover``);
* every answer to lists derived by standalone analysis (Example 7) is
  certified Γ-private (Theorems 4 and 8);
* the answers, certificates included, do not depend on the string-hash
  seed.

Run as a script, this file prints the corpus answers as JSON.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro import Planner
from repro.core import SecureViewProblem
from repro.engine import default_registry
from repro.exceptions import InfeasibleError, RequirementError, SolverError
from repro.reductions import (
    exact_label_cover,
    exact_set_cover,
    exact_vertex_cover,
    label_cover_to_general_secure_view,
    label_cover_to_set_secure_view,
    random_cubic_graph,
    random_label_cover,
    random_set_cover,
    set_cover_to_general_secure_view,
    set_cover_to_secure_view,
    vertex_cover_to_secure_view,
)
from repro.workloads import example5_problem, example7_chain, random_problem

#: "l_max = 3 (Thm 6)", "gamma+1 = 2 (Thm 7)", "l_max = 2 (Sec 5.2)".
_FACTOR = re.compile(r"= (\d+) \(")


def _factor(guarantee: str) -> int | None:
    """The approximation factor a guarantee names, 1 for "optimal"."""
    if guarantee == "optimal":
        return 1
    match = _FACTOR.search(guarantee)
    return int(match.group(1)) if match else None


def _variants(label: str, problem: SecureViewProblem):
    """The instance with privatization allowed and, if it has public
    modules, disallowed."""
    rules = (True, False) if problem.workflow.public_modules else (True,)
    for allow in rules:
        yield f"{label}/allow={allow}", SecureViewProblem(
            problem.workflow,
            problem.gamma,
            problem.requirements,
            hidable_attributes=problem.hidable_attributes,
            allow_privatization=allow,
        )


def reductions() -> list[tuple[str, SecureViewProblem, int]]:
    """The paper's hardness instances, each with its source optimum."""
    instances = []
    for n_elements, n_subsets, seed in ((5, 4, 0), (7, 5, 0), (8, 6, 2)):
        cover = random_set_cover(n_elements, n_subsets, seed=seed)
        optimum = len(exact_set_cover(cover))
        for tag, reduction in (
            ("", set_cover_to_secure_view),
            ("-general", set_cover_to_general_secure_view),
        ):
            instances.append(
                (
                    f"set-cover{tag}({n_elements},{n_subsets})/{seed}",
                    reduction(cover),
                    optimum,
                )
            )
    for shape, seed in (((2, 2, 2), 7), ((3, 2, 2), 0)):
        labels = random_label_cover(*shape, seed=seed)
        optimum = labels.cost(exact_label_cover(labels))
        for tag, reduction in (
            ("", label_cover_to_set_secure_view),
            ("-general", label_cover_to_general_secure_view),
        ):
            instances.append(
                (f"label-cover{tag}{shape}/{seed}", reduction(labels), optimum)
            )
    graph = random_cubic_graph(4, seed=0)
    instances.append(
        (
            "vertex-cover(4)/0",
            vertex_cover_to_secure_view(graph),
            graph.n_edges + len(exact_vertex_cover(graph)),
        )
    )
    return instances


def corpus() -> list[tuple[str, SecureViewProblem, int | None]]:
    """(label, instance, source optimum or ``None``) for every instance."""
    instances = [("example5(6)", example5_problem(6), None), *reductions()]
    for kind in ("set", "cardinality"):
        instances.append(
            (
                f"example7(2)/{kind}",
                SecureViewProblem.from_standalone_analysis(
                    example7_chain(2), gamma=2, kind=kind
                ),
                None,
            )
        )
        for topology in ("random", "chain", "layered"):
            for n_modules in (4, 6):
                for seed in (0, 1):
                    for fraction in (1.0, 0.5):
                        problem = random_problem(
                            n_modules=n_modules,
                            kind=kind,
                            seed=seed,
                            topology=topology,
                            private_fraction=fraction,
                        )
                        label = f"{topology}/{n_modules}/{kind}/{seed}/{fraction}"
                        instances.append((label, problem, None))
                        names = sorted(problem.workflow.attribute_names)
                        subset = random.Random(seed).sample(
                            names, round(0.8 * len(names))
                        )
                        instances.append(
                            (
                                f"{label}/hidable=80%",
                                SecureViewProblem(
                                    problem.workflow,
                                    problem.gamma,
                                    problem.requirements,
                                    hidable_attributes=frozenset(subset),
                                ),
                                None,
                            )
                        )
    variants = []
    for label, problem, source in instances:
        variants.extend(
            (name, variant, source) for name, variant in _variants(label, problem)
        )
    return variants


def answers() -> dict[str, dict]:
    """Every solver's outcome on every corpus instance."""
    registry = default_registry()
    records: dict[str, dict] = {}
    for label, problem, source in corpus():
        record = {
            "allow_privatization": problem.allow_privatization,
            # The Example-7 entries' lists come from standalone analysis.
            "derived_lists": label.startswith("example7("),
            "source_optimum": source,
            "factors": {
                spec.name: factor
                for spec in registry.applicable(problem)
                if (factor := _factor(spec.guarantee_for(problem))) is not None
            },
            "takes": sorted(
                spec.name
                for spec in registry.specs()
                if spec.takes(problem.constraint_kind)
            ),
            "outcomes": {},
        }
        # One planner per instance: its certificates compile each module once.
        planner = Planner.from_problem(problem)
        for spec in registry.specs():
            for local_search in (False, True):
                try:
                    result = planner.solve(
                        spec.name, seed=0, local_search=local_search
                    )
                except (InfeasibleError, SolverError, RequirementError) as exc:
                    outcome = [type(exc).__name__]
                else:
                    outcome = [
                        "ok",
                        result.cost,
                        sorted(result.hidden_attributes),
                        sorted(result.privatized_modules),
                        result.solution.meta["method"],
                        result.certificate.ok,
                    ]
                record["outcomes"][f"{spec.name}/ls={local_search}"] = outcome
        records[label] = record
    return records


def _answers_under(hash_seeds: tuple[str, ...]) -> list[dict]:
    """Run this file as a script once per hash seed, in parallel."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    processes = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        processes.append(
            subprocess.Popen(
                [sys.executable, __file__],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        )
    results = []
    for process in processes:
        out, err = process.communicate(timeout=600)
        assert process.returncode == 0, err
        results.append(json.loads(out))
    return results


def test_solver_contract():
    first, second = _answers_under(("1", "2"))
    assert first == second, "answers depend on the string-hash seed"
    for label, record in first.items():
        outcomes = record["outcomes"]
        for key, outcome in outcomes.items():
            assert outcome[0] != "RequirementError", (label, key)
            if outcome[0] == "ok" and not record["allow_privatization"]:
                assert outcome[3] == [], (label, key, outcome)
            if outcome[0] == "ok" and record["derived_lists"]:
                assert outcome[5] is True, (label, key, outcome)
        exact = outcomes["exact/ls=False"]
        if exact[0] == "InfeasibleError":
            for name in record["takes"]:
                for local_search in (False, True):
                    key = f"{name}/ls={local_search}"
                    assert outcomes[key] == ["InfeasibleError"], (label, key)
            continue
        assert exact[0] == "ok", (label, exact)
        optimum = exact[1]
        if record["source_optimum"] is not None:
            assert abs(optimum - record["source_optimum"]) <= 1e-6, (label, exact)
        for name, factor in record["factors"].items():
            for local_search in (False, True):
                key = f"{name}/ls={local_search}"
                outcome = outcomes[key]
                assert outcome[0] == "ok", (label, key, outcome)
                assert outcome[1] <= factor * optimum + 1e-6, (
                    label,
                    key,
                    outcome[1],
                    factor,
                    optimum,
                )


if __name__ == "__main__":
    print(json.dumps(answers(), sort_keys=True))
