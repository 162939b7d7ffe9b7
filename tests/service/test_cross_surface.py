"""One solve step, one record: the sweep executor and both service tiers agree.

For a given solver and seed, the paper's answer — cost, hidden attributes,
privatized modules, guarantee — and every other record field must not
depend on which surface computed it (``run_sweep``, ``SolveService`` on
threads, ``SolveService`` on processes) or on whether a store answered it.
Records are compared after :func:`~repro.engine.scrub_record` and after
dropping the keys only one surface adds.
"""

from __future__ import annotations

import pytest

from repro.engine import SweepInstance, SweepSpec, run_sweep, scrub_record
from repro.service import ServiceClient, ServiceServer, SolveService
from repro.workloads import random_workflow, workflow_to_dict

#: Keys a surface adds for its own callers: the sweep's cell index, the
#: service's fingerprint and coalescing flag.
SURFACE_KEYS = ("index", "fingerprint", "coalesced")
KINDS = ("set", "cardinality")
#: One deterministic solver and one randomized solver at two seeds.
PAIRS = (("greedy", 0), ("random", 1), ("random", 2))


def _comparable(record: dict) -> dict:
    return {k: v for k, v in scrub_record(record).items() if k not in SURFACE_KEYS}


@pytest.fixture(scope="module")
def payloads() -> dict[str, dict]:
    return {
        f"w{seed}": workflow_to_dict(random_workflow(4, seed=seed)) for seed in (3, 4)
    }


def _sweep(payloads: dict, store) -> list[dict]:
    spec = SweepSpec(
        instances=tuple(
            SweepInstance(label, "workflow", payload)
            for label, payload in payloads.items()
        ),
        gammas=(2,),
        kinds=KINDS,
        solver_seed_pairs=PAIRS,
    )
    return [_comparable(record) for record in run_sweep(spec, store=store).records]


def _service(payloads: dict, store, exec_mode: str) -> tuple[list, list]:
    """Cold and warm records, in the sweep's cell order."""
    bodies = [
        {
            "workflow": payload,
            "label": label,
            "gamma": 2,
            "kind": kind,
            "solver": solver,
            "seed": seed,
        }
        for label, payload in payloads.items()
        for kind in KINDS
        for solver, seed in PAIRS
    ]
    # No in-memory result cache: a warm repeat reads the store's result
    # tier (or, without a store, solves again).
    service = SolveService(
        store=store,
        workers=2,
        default_timeout=60,
        result_cache_size=0,
        maintenance_interval=None,
        exec_mode=exec_mode,
    )
    try:
        return tuple(
            [_comparable(service.solve_payload(dict(body))) for body in bodies]
            for _pass in ("cold", "warm")
        )
    finally:
        assert service.drain(timeout=60)


@pytest.mark.parametrize("with_store", [False, True])
def test_every_surface_answers_with_the_same_record(payloads, tmp_path, with_store):
    def store(name: str):
        return str(tmp_path / name) if with_store else None

    cold = _sweep(payloads, store("sweep"))
    assert len(cold) == len(payloads) * len(KINDS) * len(PAIRS)
    assert not [record for record in cold if "error" in record]
    assert _sweep(payloads, store("sweep")) == cold
    for exec_mode in ("threads", "processes"):
        assert _service(payloads, store(exec_mode), exec_mode) == (cold, cold)


def test_service_answers_from_what_a_sweep_stored(payloads, tmp_path):
    """A sweep and the service key an instance alike (one payload
    fingerprint), so ``POST /v1/solve`` reads the sweep's stored result."""
    store = str(tmp_path / "shared")
    cold = _sweep(payloads, store)
    service = SolveService(
        store=store, workers=2, default_timeout=60, maintenance_interval=None
    )
    server = ServiceServer(service, port=0).start()
    try:
        client = ServiceClient(server.url, timeout=60)
        records = [
            client.solve(
                workflow=payload,
                label=label,
                gamma=2,
                kind=kind,
                solver=solver,
                seed=seed,
            )
            for label, payload in payloads.items()
            for kind in KINDS
            for solver, seed in PAIRS
        ]
        client.close()
    finally:
        server.stop(drain_timeout=60)
    assert all(record["from_store"] for record in records)
    assert [_comparable(record) for record in records] == cold
