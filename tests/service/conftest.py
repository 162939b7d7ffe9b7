"""Shared fixtures for the solve-service tests.

The concurrency tests are deterministic by construction: blocking solvers
gate on :class:`threading.Event`, attachment is sequenced through
``RequestCoalescer.await_waiters`` (condition-based, no polling), and drain
ordering goes through ``SolveService.drain_started`` — no ``sleep`` calls
anywhere.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.core import Workflow
from repro.engine.registry import SolverRegistry, default_registry
from repro.workloads import figure1_workflow, random_total_module, workflow_to_dict


class Blocker:
    """A registry whose one solver blocks until the test releases it."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()
        self.registry = SolverRegistry()

        @self.registry.register("blocker", summary="test solver that blocks")
        def blocker(problem):
            with self._lock:
                self.calls += 1
            self.started.set()
            assert self.release.wait(30), "test never released the blocking solver"
            return default_registry().get("exact").fn(problem)


@pytest.fixture
def blocker() -> Blocker:
    return Blocker()


@pytest.fixture
def figure1_payload() -> dict:
    return workflow_to_dict(figure1_workflow())


@pytest.fixture(scope="session")
def large_payload() -> dict:
    """A workflow whose solve body spans several KB (> 2000 bytes).

    Real requests are this size; ``http.client`` sends their headers and
    body in separate writes, which the latency tests must cover.
    """
    workflow = Workflow(
        [random_total_module(300 + i, 5, 4, f"m{i}", f"s{i}_") for i in range(3)],
        name="large",
    )
    return workflow_to_dict(workflow)


@pytest.fixture
def overlapping_payloads() -> tuple[dict, dict]:
    """Two workflows sharing one module by content (the module tier's unit)."""
    shared = random_total_module(7, 2, 2, "shared", "s_")
    left = Workflow(
        [shared, random_total_module(11, 2, 2, "left", "l_")], name="left-wf"
    )
    right = Workflow(
        [shared, random_total_module(13, 2, 2, "right", "r_")], name="right-wf"
    )
    return workflow_to_dict(left), workflow_to_dict(right)


@pytest.fixture
def median_round_trip_ms():
    """Median wall time of ``rounds`` sequential calls, in milliseconds."""

    def measure(call, rounds: int = 50) -> float:
        samples = []
        for _ in range(rounds):
            started = time.perf_counter()
            call()
            samples.append((time.perf_counter() - started) * 1e3)
        return statistics.median(samples)

    return measure
