"""Answer checking against in-process reference solves."""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from repro import Planner
from repro.engine import DerivationCache, scrub_record

from .gen import Request

#: An answer: cost, hidden attributes, privatized modules.
Answer = tuple[float, tuple[str, ...], tuple[str, ...]]


def answer_of(record: Mapping[str, Any]) -> Answer:
    """The answer a solve record carries."""
    return (
        float(record["cost"]),
        tuple(sorted(record["hidden_attributes"])),
        tuple(sorted(record["privatized_modules"])),
    )


def reference_answers(requests: Iterable[Request]) -> dict[tuple, Answer]:
    """Solve every distinct request once with an in-process ``Planner``."""
    cache = DerivationCache()
    answers: dict[tuple, Answer] = {}
    for request in requests:
        if request.key in answers:
            continue
        result = Planner(
            request.workflow, request.gamma, kind=request.kind, cache=cache
        ).solve(request.solver, seed=request.seed)
        answers[request.key] = answer_of(result_record(result))
    return answers


def result_record(result: Any) -> dict[str, Any]:
    """The answer fields of an in-process ``SolveResult``, as a record."""
    return {
        "cost": result.cost,
        "hidden_attributes": list(result.hidden_attributes),
        "privatized_modules": list(result.privatized_modules),
    }


def matches(record: Mapping[str, Any] | None, expected: Answer) -> bool:
    """Does a solve record (``None``: no answer) carry the expected answer?"""
    try:
        cost, hidden, privatized = answer_of(record)
    except (KeyError, TypeError, ValueError):
        return False
    return (
        math.isclose(cost, expected[0], rel_tol=1e-9, abs_tol=1e-12)
        and hidden == expected[1]
        and privatized == expected[2]
    )


def sweep_mismatches(
    reference: Sequence[Mapping[str, Any]], records: Sequence[Mapping[str, Any]]
) -> int:
    """Cells whose record differs from the reference pass (scrubbed of
    timings and cache provenance) or carries an error."""
    if len(reference) != len(records):
        return max(len(reference), len(records))
    return sum(
        1
        for expected, record in zip(reference, records)
        if "error" in record or scrub_record(expected) != scrub_record(record)
    )
