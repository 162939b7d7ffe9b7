"""Adversary simulation: reconstructing module functionality from a view.

Γ-privacy (Definition 5) promises that an adversary with unbounded
computational power who sees the provenance view cannot guess ``m(x)`` with
probability above ``1/Γ``.  This module plays that adversary:

* :func:`candidate_outputs` — the adversary's full uncertainty set for one
  input (a thin wrapper over the possible-worlds machinery),
* :func:`reconstruction_attack` — for every actual input of a target module,
  compute the uncertainty set and the adversary's best guessing probability,
* :class:`AttackReport` — a per-module summary (worst-case and average
  guessing probability, which inputs are fully exposed).

The attack is exact (it enumerates possible worlds), so it doubles as an
independent check of the privacy guarantees: tests assert that on a
Γ-private view no input's guessing probability exceeds ``1/Γ``, and that on
an unprotected view the attack recovers the module's true function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..exceptions import PrivacyError
from .attributes import Value
from .possible_worlds import workflow_out_sets
from .relation import Relation
from .workflow import Workflow

__all__ = [
    "InputExposure",
    "AttackReport",
    "candidate_outputs",
    "reconstruction_attack",
]


@dataclass(frozen=True)
class InputExposure:
    """The adversary's view of one module input."""

    input_values: tuple[Value, ...]
    candidates: frozenset[tuple[Value, ...]]
    true_output: tuple[Value, ...]

    @property
    def guessing_probability(self) -> float:
        """Best probability of guessing the output (uniform over candidates)."""
        return 1.0 / len(self.candidates)

    @property
    def exposed(self) -> bool:
        """True when the adversary can pin the output down exactly."""
        return len(self.candidates) == 1

    @property
    def recovered_correctly(self) -> bool:
        """True when the only candidate is the true output."""
        return self.exposed and next(iter(self.candidates)) == self.true_output


@dataclass(frozen=True)
class AttackReport:
    """Summary of a reconstruction attack against one module."""

    module_name: str
    gamma_target: int | None
    exposures: tuple[InputExposure, ...]

    @property
    def worst_guessing_probability(self) -> float:
        return max(e.guessing_probability for e in self.exposures)

    @property
    def average_guessing_probability(self) -> float:
        return sum(e.guessing_probability for e in self.exposures) / len(self.exposures)

    @property
    def exposed_inputs(self) -> tuple[InputExposure, ...]:
        return tuple(e for e in self.exposures if e.exposed)

    @property
    def achieved_gamma(self) -> int:
        """The effective Γ the view provides: min candidate-set size."""
        return min(len(e.candidates) for e in self.exposures)

    @property
    def breaches_target(self) -> bool:
        """True when a target Γ was given and some input falls below it."""
        if self.gamma_target is None:
            return False
        return self.achieved_gamma < self.gamma_target

    def as_records(self) -> list[dict[str, object]]:
        """Flat records for the reporting layer."""
        return [
            {
                "input": exposure.input_values,
                "candidates": len(exposure.candidates),
                "guess_probability": exposure.guessing_probability,
                "exposed": exposure.exposed,
            }
            for exposure in self.exposures
        ]


def candidate_outputs(
    workflow: Workflow,
    module_name: str,
    x: Mapping[str, Value],
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    relation: Relation | None = None,
) -> frozenset[tuple[Value, ...]]:
    """The adversary's uncertainty set ``OUT_{x,W}`` for one input."""
    module = workflow.module(module_name)
    key = tuple(x[name] for name in module.input_names)
    out_sets = workflow_out_sets(
        workflow,
        module_name,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=relation,
    )
    try:
        return frozenset(out_sets[key])
    except KeyError as exc:
        raise PrivacyError(
            f"input {dict(x)!r} does not occur in the provenance relation"
        ) from exc


def reconstruction_attack(
    workflow: Workflow,
    module_name: str,
    visible: Iterable[str],
    hidden_public_modules: Iterable[str] = (),
    gamma_target: int | None = None,
    relation: Relation | None = None,
) -> AttackReport:
    """Attack one module: compute the uncertainty set of every actual input.

    The attack enumerates possible worlds once (shared across inputs) and is
    therefore only practical on the small instances the rest of the
    brute-force machinery targets; that is enough to validate (or break)
    privacy claims in tests, benchmarks and examples.
    """
    module = workflow.module(module_name)
    out_sets = workflow_out_sets(
        workflow,
        module_name,
        visible,
        hidden_public_modules=hidden_public_modules,
        relation=relation,
    )
    base = relation if relation is not None else workflow.provenance_relation()
    true_outputs: dict[tuple[Value, ...], tuple[Value, ...]] = {}
    for row in base:
        key = tuple(row[name] for name in module.input_names)
        true_outputs[key] = tuple(row[name] for name in module.output_names)

    exposures = []
    for key, candidates in sorted(out_sets.items()):
        exposures.append(
            InputExposure(
                input_values=key,
                candidates=frozenset(candidates),
                true_output=true_outputs[key],
            )
        )
    if not exposures:
        raise PrivacyError(
            f"module {module_name!r} has no executions to attack"
        )
    return AttackReport(
        module_name=module_name,
        gamma_target=gamma_target,
        exposures=tuple(exposures),
    )
