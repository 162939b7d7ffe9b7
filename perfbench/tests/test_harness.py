"""Tests of the benchmark harness itself: inputs, percentiles, answer
checking and span arithmetic."""

import itertools
import json
import statistics

import pytest

from perfbench import gen
from perfbench.check import matches, reference_answers, sweep_mismatches
from perfbench.stats import (
    Span,
    Tracer,
    percentile,
    self_times,
    tail_count,
    union_length,
)


def _payloads(requests):
    return json.dumps([[r.payload, r.key] for r in requests], sort_keys=True)


# -- seeded generation ---------------------------------------------------------

def test_hot_inputs_are_a_function_of_the_seed():
    first, again, other = gen.hot_inputs(3), gen.hot_inputs(3), gen.hot_inputs(4)
    assert len(first.catalogue) == gen.HOT_FAMILIES * gen.HOT_VARIANTS
    assert _payloads(first.catalogue) == _payloads(again.catalogue)
    assert first.weights == again.weights
    assert _payloads(first.catalogue) != _payloads(other.catalogue)
    picks = list(itertools.islice(first.picker(3, 0), 50))
    assert picks == list(itertools.islice(again.picker(3, 0), 50))
    assert picks != list(itertools.islice(first.picker(3, 1), 50))


def test_traced_sweep_sample_is_deterministic_and_covers_the_axes():
    first = gen.sweep_sample(gen.sweep_inputs(5))
    assert _payloads(first) == _payloads(gen.sweep_sample(gen.sweep_inputs(5)))
    assert len({request.workflow.name for request in first}) == len(first)
    assert {(r.gamma, r.kind, r.solver) for r in first} == set(
        itertools.product(gen.SWEEP_GAMMAS, gen.SWEEP_KINDS, gen.SWEEP_SOLVERS)
    )


def test_sweep_grid_is_deterministic_and_has_256_cells():
    spec, again = gen.sweep_inputs(2).spec(), gen.sweep_inputs(2).spec()
    assert len(spec.cells()) == 256
    assert json.dumps([i.payload for i in spec.instances], sort_keys=True) == (
        json.dumps([i.payload for i in again.instances], sort_keys=True)
    )


# -- percentiles ---------------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    values = list(range(1, 11))
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 10
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # order does not matter


def test_percentile_agrees_with_statistics_inclusive_quantiles():
    values = [0.3, 9.1, 4.4, 4.4, 2.0, 7.7, 1.5, 8.8, 6.2]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 10) == pytest.approx(cuts[0])
    assert percentile(values, 90) == pytest.approx(cuts[-1])


def test_tail_count_and_bad_arguments():
    assert tail_count(list(range(1, 101)), 90) == 10
    assert tail_count([5.0] * 20, 90) == 0  # ties are not beyond
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- answer checking -----------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    request = gen.hot_inputs(1).catalogue[0]
    answer = reference_answers([request])[request.key]
    record = {
        "cost": answer[0],
        "hidden_attributes": list(reversed(answer[1])),
        "privatized_modules": list(answer[2]),
    }
    return answer, record


def test_checker_accepts_the_reference_answer(solved):
    answer, record = solved
    assert matches(record, answer)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r.update(cost=r["cost"] + 0.5),
        lambda r: r.update(hidden_attributes=r["hidden_attributes"][1:]),
        lambda r: r.update(hidden_attributes=r["hidden_attributes"] + ["x"]),
        lambda r: r.update(privatized_modules=r["privatized_modules"] + ["m9"]),
        lambda r: r.pop("cost"),
        lambda r: r.update(cost=None),
    ],
)
def test_checker_rejects_a_tampered_record(solved, tamper):
    answer, record = solved
    record = json.loads(json.dumps(record))
    tamper(record)
    assert not matches(record, answer)


def test_sweep_check_ignores_timings_but_not_answers():
    cold = [{"index": 0, "cost": 2.0, "seconds": 0.5, "from_store": False}]
    warm = [{"index": 0, "cost": 2.0, "seconds": 0.01, "from_store": True}]
    assert sweep_mismatches(cold, warm) == 0
    assert sweep_mismatches(cold, [dict(warm[0], cost=3.0)]) == 1
    assert sweep_mismatches(cold, [dict(warm[0], error="boom")]) == 1
    assert sweep_mismatches(cold, []) == 1


# -- spans ---------------------------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10)


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 3.0, parent=1),
        Span(3, "b", 2.0, 5.0, parent=1),  # overlaps a (another thread)
        Span(4, "c", 7.0, 8.0, parent=1),
        Span(5, "d", 9.5, 12.0, parent=1),  # outlives its parent
        Span(6, "leaf", 7.2, 7.7, parent=4),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (4 + 1 + 0.5))
    assert own[4] == pytest.approx(0.5)
    assert own[6] == pytest.approx(0.5)
    assert own[2] == pytest.approx(2.0)


def test_tracer_links_parents_and_inherits_request_ids():
    tracer = Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("inner"):
            pass
    with tracer.span("other"):
        pass
    outer, inner, other = (tracer.named(n)[0] for n in ("outer", "inner", "other"))
    assert inner.parent == outer.span_id and inner.request_id == "r1"
    assert outer.parent is None and other.parent is None
    assert other.request_id is None
    assert outer.start <= inner.start <= inner.end <= outer.end
