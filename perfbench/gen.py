"""Seeded input generation: every input of every workload comes from here.

Everything is a pure function of the ``--seed`` argument, so two runs with
one seed send the program byte-identical payloads.  The program only ever
receives the generated payloads.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Any

from repro.core import Workflow
from repro.engine import SweepInstance, SweepSpec
from repro.workloads import random_total_module, workflow_family, workflow_to_dict

#: hot_closed: 8 edit-chain families x 4 variants, modules of shape (6, 4).
HOT_FAMILIES = 8
HOT_VARIANTS = 4
HOT_SHAPE = (6, 4)
HOT_MODULES = 3
ZIPF_S = 1.1
#: The latency limit goodput counts answers against.
LATENCY_LIMIT_S = 0.5

#: sweep_batch: 4 families x 4 variants of 4 modules of shape (7, 5).
SWEEP_FAMILIES = 4
SWEEP_VARIANTS = 4
SWEEP_SHAPE = (7, 5)
SWEEP_MODULES = 4
SWEEP_GAMMAS = (2, 3)
SWEEP_KINDS = ("set", "cardinality")
SWEEP_SOLVERS = ("auto", "greedy")
SWEEP_SEEDS = (0, 1)


@dataclass(frozen=True)
class Request:
    """One solve request: the live workflow, its payload and its parameters."""

    workflow: Workflow = field(compare=False, repr=False)
    payload: dict = field(compare=False, repr=False)
    gamma: int
    kind: str
    solver: str
    seed: int | None = None

    @property
    def key(self) -> tuple:
        """What the answer depends on: instance name and solve parameters."""
        return (self.workflow.name, self.gamma, self.kind, self.solver, self.seed)

    def body(self) -> dict[str, Any]:
        """The ``POST /v1/solve`` body for this request."""
        return {
            "workflow": self.payload,
            "gamma": self.gamma,
            "kind": self.kind,
            "solver": self.solver,
            "seed": self.seed,
            "verify": False,
        }


def _family(
    rng: random.Random, index: int, shape: tuple[int, int], modules: int, variants: int
) -> list[Workflow]:
    """``variants`` workflows of one edit chain: a base and its edits."""
    base = Workflow(
        [
            random_total_module(
                rng.randrange(2**31), *shape, f"m{slot}", f"f{index}s{slot}_"
            )
            for slot in range(modules)
        ],
        name=f"family{index}",
    )
    return workflow_family(
        base, n_variants=variants - 1, rng=random.Random(rng.randrange(2**31))
    )


def _stream(seed: int, tag: str) -> random.Random:
    """An independent, named random stream derived from the run seed."""
    return random.Random(f"{seed}:{tag}")


# ---------------------------------------------------------------------------
# hot_closed
# ---------------------------------------------------------------------------

@dataclass
class HotInputs:
    catalogue: list[Request]
    weights: list[float]  # cumulative Zipf weights over catalogue order

    def picker(self, seed: int, stream: int):
        """An endless, seeded sequence of catalogue indices for one client."""
        rng = _stream(seed, f"hot-client-{stream}")
        total = self.weights[-1]
        while True:
            yield bisect.bisect_left(self.weights, rng.random() * total)


def hot_inputs(seed: int) -> HotInputs:
    rng = _stream(seed, "hot-catalogue")
    catalogue: list[Request] = []
    for index in range(HOT_FAMILIES):
        for workflow in _family(rng, index, HOT_SHAPE, HOT_MODULES, HOT_VARIANTS):
            catalogue.append(
                Request(
                    workflow=workflow,
                    payload=workflow_to_dict(workflow),
                    gamma=2,
                    kind="set",
                    solver="auto",
                )
            )
    # Popularity ranks are a seeded permutation of the catalogue.
    ranks = list(range(1, len(catalogue) + 1))
    rng.shuffle(ranks)
    weights = list(itertools.accumulate(1.0 / rank**ZIPF_S for rank in ranks))
    return HotInputs(catalogue, weights)


def hot_sample(seed: int, inputs: HotInputs, size: int) -> list[Request]:
    """The traced run's fixed sample: the first Zipf picks of client 0."""
    picks = itertools.islice(inputs.picker(seed, 0), size)
    return [inputs.catalogue[index] for index in picks]


# ---------------------------------------------------------------------------
# sweep_batch
# ---------------------------------------------------------------------------

@dataclass
class SweepInputs:
    workflows: list[Workflow]

    def spec(self) -> SweepSpec:
        """The 256-cell grid, built from the serialized instances."""
        return SweepSpec(
            instances=tuple(
                SweepInstance(workflow.name, "workflow", workflow_to_dict(workflow))
                for workflow in self.workflows
            ),
            gammas=SWEEP_GAMMAS,
            kinds=SWEEP_KINDS,
            solvers=SWEEP_SOLVERS,
            seeds=SWEEP_SEEDS,
        )


def sweep_inputs(seed: int) -> SweepInputs:
    rng = _stream(seed, "sweep-families")
    workflows: list[Workflow] = []
    for index in range(SWEEP_FAMILIES):
        workflows += _family(rng, index, SWEEP_SHAPE, SWEEP_MODULES, SWEEP_VARIANTS)
    return SweepInputs(workflows)


def sweep_sample(inputs: SweepInputs) -> list[Request]:
    """The traced run's fixed sample: one grid cell per instance, cycling
    through the (Γ, kind, solver) axes."""
    points = list(itertools.product(SWEEP_GAMMAS, SWEEP_KINDS, SWEEP_SOLVERS))
    sample = []
    for index, workflow in enumerate(inputs.workflows):
        gamma, kind, solver = points[index % len(points)]
        sample.append(
            Request(
                workflow=workflow,
                payload=workflow_to_dict(workflow),
                gamma=gamma,
                kind=kind,
                solver=solver,
                seed=SWEEP_SEEDS[0],
            )
        )
    return sample
