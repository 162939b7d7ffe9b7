"""Percentiles, and an in-memory span recorder with self-time arithmetic."""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

#: The highest percentile a run reports needs this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


def tail_count(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly beyond the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


@dataclass(frozen=True)
class Span:
    """One timed call: name, [start, end) in seconds, causing span, request."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request_id: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; the parent of a span is the innermost span
    open on the same thread when it starts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[None]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        rid = request_id if request_id is not None else inherited
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, rid))

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path, extra: dict | None = None) -> None:
        """Write every recorded span (and ``extra``) out as one JSON file."""
        document = {"spans": [asdict(span) for span in self.spans]}
        document.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        )
        result[span.span_id] = span.duration - covered
    return result
